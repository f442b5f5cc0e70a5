package main

import (
	"fmt"
	"math"
)

// csr is the benchmark's own copy of a graph, independent of the library
// under test.
type csr struct {
	off []int32
	adj []int32
}

func newCSR(n int, edges [][2]int32) *csr {
	g := &csr{off: make([]int32, n+1), adj: make([]int32, len(edges))}
	for _, e := range edges {
		g.off[e[0]+1]++
	}
	for i := 0; i < n; i++ {
		g.off[i+1] += g.off[i]
	}
	fill := append([]int32(nil), g.off[:n]...)
	for _, e := range edges {
		g.adj[fill[e[0]]] = e[1]
		fill[e[0]]++
	}
	return g
}

func (g *csr) n() int { return len(g.off) - 1 }

// rwr is power-iteration ground truth for the random walk with restart
// from src with restart probability alpha, iterated until the unconverted
// mass is below 1e-10. A walk at a node without out-edges stops there, the
// library's dead-end rule.
func (g *csr) rwr(src int32, alpha float64) []float64 {
	n := g.n()
	pi := make([]float64, n)
	cur := make([]float64, n)
	nxt := make([]float64, n)
	cur[src] = 1
	for mass := 1.0; mass > 1e-10; {
		mass = 0
		for v := 0; v < n; v++ {
			rv := cur[v]
			if rv == 0 {
				continue
			}
			cur[v] = 0
			lo, hi := g.off[v], g.off[v+1]
			if lo == hi {
				pi[v] += rv
				continue
			}
			pi[v] += alpha * rv
			share := (1 - alpha) * rv / float64(hi-lo)
			for _, w := range g.adj[lo:hi] {
				nxt[w] += share
			}
			mass += (1 - alpha) * rv
		}
		cur, nxt = nxt, cur
	}
	for v, r := range cur {
		pi[v] += r
	}
	return pi
}

// answer is one served score to check: the estimate of π(source, node),
// with the degraded flag and bound the response carried.
type answer struct {
	kind     opKind
	source   int32
	node     int32
	score    float64
	degraded bool
	bound    float64
}

// guarantee is the accuracy contract an answer claims: |π̂ − π| ≤
// ε·max(π, δ) for a full answer; a degraded answer is an underestimate
// within its additive bound, up to the same randomized slack.
type guarantee struct {
	epsilon, delta, alpha float64
}

// check returns an error describing a violation, nil when the answer
// stays within its guarantee against the ground-truth vector.
func (gu guarantee) check(a answer, truth []float64) error {
	if a.node < 0 || int(a.node) >= len(truth) {
		return fmt.Errorf("%s source %d: node %d out of range", a.kind, a.source, a.node)
	}
	pi := truth[a.node]
	tol := gu.epsilon*math.Max(pi, gu.delta) + 1e-12
	lo, hi := pi-tol, pi+tol
	if a.degraded {
		lo = pi - a.bound - tol
	}
	if a.score < lo || a.score > hi || math.IsNaN(a.score) {
		return fmt.Errorf("%s source %d node %d: served %.6g, truth %.6g, allowed [%.6g, %.6g] (degraded=%v)",
			a.kind, a.source, a.node, a.score, pi, lo, hi, a.degraded)
	}
	return nil
}

// checkRanking returns an error describing a top-k answer that is out of
// score order, repeats a node, or leaves out a node its guarantee says
// belongs in it. A left-out node v was estimated no higher than the lowest
// returned score, yet its estimate is at least π(v) − ε·max(π(v), δ) (less
// the bound of a degraded answer); when that floor lies above the lowest
// returned score, v was wrongly left out. With fewer than k results the
// lowest returned score counts as 0.
func (gu guarantee) checkRanking(k int, got []answer, truth []float64) error {
	in := make(map[int32]bool, len(got))
	for i, a := range got {
		if i > 0 && a.score > got[i-1].score {
			return fmt.Errorf("topk source %d: rank %d scores %.6g, above rank %d's %.6g",
				a.source, i+1, a.score, i, got[i-1].score)
		}
		if in[a.node] {
			return fmt.Errorf("topk source %d: node %d returned twice", a.source, a.node)
		}
		in[a.node] = true
	}
	if len(got) == 0 {
		return nil
	}
	last := got[len(got)-1]
	lowest := 0.0
	if len(got) >= k {
		lowest = last.score
	}
	for v, pi := range truth {
		if in[int32(v)] {
			continue
		}
		floor := pi - gu.epsilon*math.Max(pi, gu.delta) - 1e-12
		if last.degraded {
			floor -= last.bound
		}
		if floor > lowest {
			return fmt.Errorf("topk source %d: node %d (truth %.6g, estimate at least %.6g) left out, lowest returned score %.6g",
				last.source, v, pi, floor, lowest)
		}
	}
	return nil
}
