package main

import (
	"math"
	"sort"
	"testing"
)

func TestGroundTruthIsADistribution(t *testing.T) {
	// 0 → 1 → 2, 0 → 2, and node 2 is a dead end: a walk stops there.
	g := newCSR(3, [][2]int32{{0, 1}, {0, 2}, {1, 2}})
	pi := g.rwr(0, 0.2)
	sum := pi[0] + pi[1] + pi[2]
	if math.Abs(sum-1) > 1e-9 {
		t.Fatalf("scores sum to %v, want 1", sum)
	}
	// π(0,0) = α; π(0,1) = (1−α)/2·α; the rest ends at the dead end.
	if math.Abs(pi[0]-0.2) > 1e-9 || math.Abs(pi[1]-0.4*0.2) > 1e-9 {
		t.Fatalf("pi = %v", pi)
	}
}

func TestCheckerRejectsAPlantedWrongAnswer(t *testing.T) {
	edges, n := rmat(8, 8, 5)
	g := newCSR(n, edges)
	truth := g.rwr(3, 0.2)
	gu := guarantee{epsilon: 0.5, delta: 1 / float64(n), alpha: 0.2}
	var best int32
	for v := range truth {
		if truth[v] > truth[best] {
			best = int32(v)
		}
	}
	good := answer{kind: opTopK, source: 3, node: best, score: truth[best] * 1.3}
	if err := gu.check(good, truth); err != nil {
		t.Fatalf("an answer 30%% high is within ε=0.5: %v", err)
	}
	planted := good
	planted.score = truth[best] * 1.6
	if gu.check(planted, truth) == nil {
		t.Fatal("an answer 60% high passed an ε=0.5 check")
	}
	low := good
	low.score = truth[best] * 0.4
	if gu.check(low, truth) == nil {
		t.Fatal("an answer 60% low passed an ε=0.5 check")
	}
	degraded := low
	degraded.degraded, degraded.bound = true, truth[best]*0.2
	if err := gu.check(degraded, truth); err != nil {
		t.Fatalf("a degraded underestimate within its bound failed: %v", err)
	}
	degraded.bound = 0
	if gu.check(degraded, truth) == nil {
		t.Fatal("a degraded answer below its bound passed")
	}
	tiny := answer{kind: opPair, source: 3, node: best, score: truth[best] + 0.6/float64(n) + truth[best]*0.5}
	if gu.check(tiny, truth) == nil {
		t.Fatal("a pair estimate outside ε·max(π,δ) passed")
	}
	if gu.check(answer{kind: opTopK, source: 3, node: int32(n)}, truth) == nil {
		t.Fatal("an out-of-range node passed")
	}
}

func TestCheckerRejectsAPlantedWrongRanking(t *testing.T) {
	edges, n := rmat(8, 8, 5)
	truth := newCSR(n, edges).rwr(3, 0.2)
	gu := guarantee{epsilon: 0.5, delta: 1 / float64(n), alpha: 0.2}
	order := make([]int32, n)
	for v := range order {
		order[v] = int32(v)
	}
	sort.Slice(order, func(i, j int) bool { return truth[order[i]] > truth[order[j]] })
	const k = 5
	ranked := func(nodes []int32) []answer {
		var out []answer
		for _, v := range nodes {
			out = append(out, answer{kind: opTopK, source: 3, node: v, score: truth[v]})
		}
		return out
	}
	if err := gu.checkRanking(k, ranked(order[:k]), truth); err != nil {
		t.Fatalf("the true top-%d failed: %v", k, err)
	}
	// k nodes with exact scores, but not the top ones.
	if gu.checkRanking(k, ranked(order[k:2*k]), truth) == nil {
		t.Fatal("a wrong set with exact scores passed")
	}
	swapped := ranked(order[:k])
	swapped[0], swapped[1] = swapped[1], swapped[0]
	if truth[order[0]] > truth[order[1]] && gu.checkRanking(k, swapped, truth) == nil {
		t.Fatal("an answer out of score order passed")
	}
	twice := ranked(order[:k])
	twice[1] = twice[0]
	if gu.checkRanking(k, twice, truth) == nil {
		t.Fatal("an answer repeating a node passed")
	}
	if gu.checkRanking(k, ranked(order[:1]), truth) == nil {
		t.Fatal("a short answer leaving out nodes with clear mass passed")
	}
}
