package core

import (
	"math"
	"testing"
	"testing/quick"

	"resacc/internal/algo"
	"resacc/internal/graph"
	"resacc/internal/graph/gen"
	"resacc/internal/ws"
)

// TestPipelineMassConservation checks Σπ + Σr = 1 after each deterministic
// phase (h-HopFWD, then OMFWD) on random graphs — the invariant both
// Lemma 4 and the remedy-phase accounting rely on.
func TestPipelineMassConservation(t *testing.T) {
	check := func(seed uint64, hRaw uint8) bool {
		g := gen.ErdosRenyi(120, 700, seed)
		h := int(hRaw%4) + 1
		w := ws.New(g.N())
		hop := runHHopFWD(g, 0, 0.2, 1e-10, h, false, w, 0, nil)
		if math.Abs(sum(w.Reserve)+sum(w.Residue)-1) > 1e-9 {
			return false
		}
		runOMFWD(g, 0.2, 1e-5, w, hop.frontier, 0, nil)
		return math.Abs(sum(w.Reserve)+sum(w.Residue)-1) < 1e-9
	}
	if err := quick.Check(check, &quick.Config{MaxCount: 40}); err != nil {
		t.Fatal(err)
	}
}

// TestOMFWDReducesResidue asserts the OMFWD phase never increases the
// residue mass (its whole purpose is to shrink r_sum before the remedy).
func TestOMFWDReducesResidue(t *testing.T) {
	check := func(seed uint64) bool {
		g := gen.RMAT(8, 5, seed)
		w := ws.New(g.N())
		hop := runHHopFWD(g, 1, 0.2, 1e-12, 2, false, w, 0, nil)
		before := sum(w.Residue)
		runOMFWD(g, 0.2, 1e-6, w, hop.frontier, 0, nil)
		after := sum(w.Residue)
		return after <= before+1e-12
	}
	if err := quick.Check(check, &quick.Config{MaxCount: 30}); err != nil {
		t.Fatal(err)
	}
}

// TestGuaranteeAcrossSeeds verifies the ε bound holds across many remedy
// seeds — Definition 1 allows p_f failures but the Chernoff budget is so
// conservative that every seed should pass on a small graph.
func TestGuaranteeAcrossSeeds(t *testing.T) {
	g := gen.BarabasiAlbert(250, 3, 11)
	p := defaultTestParams(g)
	truth := groundTruth(t, g, 5, p)
	for seed := uint64(1); seed <= 20; seed++ {
		q := p
		q.Seed = seed
		est, err := Solver{}.SingleSource(g, 5, q)
		if err != nil {
			t.Fatal(err)
		}
		worst := 0.0
		for v := range truth {
			if truth[v] > q.Delta {
				rel := math.Abs(est[v]-truth[v]) / truth[v]
				if rel > worst {
					worst = rel
				}
			}
		}
		if worst > q.Epsilon {
			t.Fatalf("seed %d: rel err %v > ε", seed, worst)
		}
	}
}

// TestRemedyVarianceShrinksWithBudget: quadrupling the walk budget should
// roughly halve the error's standard deviation (Monte-Carlo 1/√n scaling).
func TestRemedyVarianceShrinksWithBudget(t *testing.T) {
	g := gen.ErdosRenyi(200, 1200, 13)
	p := defaultTestParams(g)
	truth := groundTruth(t, g, 0, p)
	spread := func(nscale float64) float64 {
		total := 0.0
		const trials = 12
		for seed := uint64(1); seed <= trials; seed++ {
			q := p
			q.Seed = seed
			q.NScale = nscale
			est, err := Solver{}.SingleSource(g, 0, q)
			if err != nil {
				t.Fatal(err)
			}
			worst := 0.0
			for v := range truth {
				if d := math.Abs(est[v] - truth[v]); d > worst {
					worst = d
				}
			}
			total += worst
		}
		return total / trials
	}
	coarse := spread(0.05)
	fine := spread(0.8)
	if fine >= coarse {
		t.Fatalf("error did not shrink with budget: %v vs %v", fine, coarse)
	}
}

func defaultTestParams(g *graph.Graph) algo.Params {
	p := algo.DefaultParams(g)
	p.Seed = 1
	return p
}
