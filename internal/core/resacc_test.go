package core

import (
	"math"
	"testing"

	"resacc/internal/algo"
	"resacc/internal/algo/power"
	"resacc/internal/eval"
	"resacc/internal/graph"
	"resacc/internal/graph/gen"
	"resacc/internal/ws"
)

// figure3Graph is the 3-cycle of the paper's Fig. 3: s -> v1 -> v2 -> s.
func figure3Graph() *graph.Graph {
	b := graph.NewBuilder(3)
	b.AddEdge(0, 1)
	b.AddEdge(1, 2)
	b.AddEdge(2, 0)
	return b.MustBuild()
}

// figure1Graph is the 4-node example of Fig. 1.
func figure1Graph() *graph.Graph {
	b := graph.NewBuilder(4)
	b.AddEdge(0, 1) // v1 -> v2
	b.AddEdge(0, 2) // v1 -> v3
	b.AddEdge(1, 3) // v2 -> v4
	b.AddEdge(2, 1) // v3 -> v2
	return b.MustBuild()
}

// hopRun pairs a phase-1 result with the workspace holding its vectors, so
// the tests can keep reading reserve/residue by node.
type hopRun struct {
	hopInfo
	w *ws.Workspace
}

func runHop(g *graph.Graph, src int32, alpha, rmax float64, h int, whole bool) hopRun {
	w := ws.New(g.N())
	return hopRun{runHHopFWD(g, src, alpha, rmax, h, whole, w, 0, nil), w}
}

func TestHHopFWDFigure3Trace(t *testing.T) {
	// Reproduce Fig. 3(b): α=0.2, pushes at s, v1, v2 leave reserves
	// (0.2, 0.16, 0.128) and residue 0.512 back at s.
	g := figure3Graph()
	st := runHop(g, 0, 0.2, 0.1, 2, false)
	if math.Abs(st.r1-0.512) > 1e-12 {
		t.Fatalf("r1=%v, want 0.512", st.r1)
	}
	// With r_max^hop=0.1 and d_out(s)=1: θ=0.1,
	// T = ceil(log 0.1 / log 0.512) = ceil(3.44) = 4.
	if st.t != 4 {
		t.Fatalf("T=%d, want 4", st.t)
	}
	wantS := (1 - math.Pow(0.512, 4)) / (1 - 0.512)
	if math.Abs(st.s-wantS) > 1e-12 {
		t.Fatalf("S=%v, want %v", st.s, wantS)
	}
	// Reserves are the single-phase reserves scaled by S.
	for i, base := range []float64{0.2, 0.16, 0.128} {
		if got := st.w.Reserve[i]; math.Abs(got-base*wantS) > 1e-12 {
			t.Fatalf("reserve[%d]=%v, want %v", i, got, base*wantS)
		}
	}
	// Final source residue is r1^T, below the push threshold.
	if got := st.w.Residue[0]; math.Abs(got-math.Pow(0.512, 4)) > 1e-12 {
		t.Fatalf("residue[s]=%v, want %v", got, math.Pow(0.512, 4))
	}
	if st.w.Residue[0] >= 0.1*1 {
		t.Fatal("source residue should be below the push threshold after updating")
	}
}

func TestHHopFWDMassConservation(t *testing.T) {
	// Σ reserve + Σ residue must be exactly 1 after h-HopFWD: this is the
	// invariant the Lemma 4 proof starts from and it validates the
	// corrected geometric scaler (DESIGN.md notes the paper's typo).
	graphs := map[string]*graph.Graph{
		"fig1":  figure1Graph(),
		"fig3":  figure3Graph(),
		"grid":  gen.Grid(8, 8),
		"er":    gen.ErdosRenyi(300, 1500, 7),
		"rmat":  gen.RMAT(9, 4, 11),
		"ba":    gen.BarabasiAlbert(300, 3, 13),
		"line":  lineGraph(20),
		"lolly": lollipopGraph(),
	}
	for name, g := range graphs {
		for _, h := range []int{0, 1, 2, 3} {
			for _, whole := range []bool{false, true} {
				st := runHop(g, 0, 0.2, 1e-9, h, whole)
				total := sum(st.w.Reserve) + sum(st.w.Residue)
				if math.Abs(total-1) > 1e-9 {
					t.Errorf("%s h=%d whole=%v: mass=%v, want 1", name, h, whole, total)
				}
			}
		}
	}
}

func TestHHopFWDSourceBelowThreshold(t *testing.T) {
	// Lemma 3: after the updating phase, r(s) < r_max^hop · d_out(s).
	g := gen.RMAT(9, 4, 3)
	for _, src := range []int32{0, 1, 5, 100} {
		if g.OutDegree(src) == 0 {
			continue
		}
		st := runHop(g, src, 0.2, 1e-6, 2, false)
		if st.w.Residue[src] >= 1e-6*float64(g.OutDegree(src)) {
			t.Errorf("src=%d: residue %v not below threshold", src, st.w.Residue[src])
		}
	}
}

func TestHHopFWDDanglingSource(t *testing.T) {
	b := graph.NewBuilder(3)
	b.AddEdge(1, 0)
	b.AddEdge(1, 2)
	g := b.MustBuild()
	st := runHop(g, 0, 0.2, 1e-9, 2, false)
	if st.w.Reserve[0] != 1 || sum(st.w.Residue) != 0 {
		t.Fatalf("dangling source: reserve=%v residue sum=%v", st.w.Reserve[0], sum(st.w.Residue))
	}
}

func TestHHopFWDResidueOnlyWithinHPlus1(t *testing.T) {
	// Residue may live only inside V_{h+1}; reserves only inside V_h.
	g := lineGraph(10)
	h := 3
	st := runHop(g, 0, 0.2, 1e-12, h, false)
	for v := 0; v < g.N(); v++ {
		if v > h && st.w.Reserve[v] != 0 {
			t.Errorf("reserve leaked to node %d beyond h", v)
		}
		if v > h+1 && st.w.Residue[v] != 0 {
			t.Errorf("residue leaked to node %d beyond h+1", v)
		}
	}
	// On the line the frontier node h+1 accumulates everything not yet
	// reserved: (1-α)^{h+1}.
	want := math.Pow(0.8, float64(h+1))
	if math.Abs(st.w.Residue[h+1]-want) > 1e-12 {
		t.Errorf("frontier residue=%v, want %v", st.w.Residue[h+1], want)
	}
}

func TestLemma4FrontierBound(t *testing.T) {
	// Lemma 4: with r_max^hop small enough that every subgraph node
	// pushes, r_sum^hop ≤ (1-α)^h.
	graphs := []*graph.Graph{gen.Grid(10, 10), gen.ErdosRenyi(200, 1200, 5), figure1Graph()}
	for gi, g := range graphs {
		for _, h := range []int{1, 2, 3} {
			st := runHop(g, 0, 0.2, 1e-13, h, false)
			bound := math.Pow(0.8, float64(h))
			if got := sum(st.w.Residue); got > bound+1e-9 {
				t.Errorf("graph %d h=%d: r_sum=%v exceeds (1-α)^h=%v", gi, h, got, bound)
			}
		}
	}
}

func TestUpdatingPhaseMatchesExplicitLoops(t *testing.T) {
	// The closed-form updating phase must equal explicitly running the T
	// accumulating phases one by one (the OAOP reference of Appendix Q).
	g := figure3Graph()
	alpha, rmax := 0.2, 0.01
	// Closed form.
	st := runHop(g, 0, alpha, rmax, 2, false)
	// Explicit: run phase 1 to get per-phase deltas, then iterate.
	one := runOneAccumulatingPhase(g, 0, alpha, rmax, 2)
	r1 := one.w.Residue[0]
	if math.Abs(r1-st.r1) > 1e-15 {
		t.Fatalf("phase-1 r1 mismatch: %v vs %v", r1, st.r1)
	}
	n := g.N()
	reserve := make([]float64, n)
	residue := make([]float64, n)
	scale := 1.0
	rs := 1.0 // residue of s entering the current phase
	theta := rmax * float64(g.OutDegree(0))
	phases := 0
	for rs >= theta && phases < 10000 {
		for v := 0; v < n; v++ {
			reserve[v] += one.w.Reserve[v] * scale
			if v != 0 {
				residue[v] += one.w.Residue[v] * scale
			}
		}
		rs = r1 * scale
		scale *= r1
		phases++
	}
	residue[0] = rs
	if phases != st.t {
		t.Fatalf("explicit phases=%d, closed-form T=%d", phases, st.t)
	}
	for v := 0; v < n; v++ {
		if math.Abs(reserve[v]-st.w.Reserve[v]) > 1e-12 {
			t.Errorf("reserve[%d]: explicit %v vs closed form %v", v, reserve[v], st.w.Reserve[v])
		}
		if math.Abs(residue[v]-st.w.Residue[v]) > 1e-12 {
			t.Errorf("residue[%d]: explicit %v vs closed form %v", v, residue[v], st.w.Residue[v])
		}
	}
}

// runOneAccumulatingPhase exposes a single accumulating phase for the OAOP
// comparison: it is runHHopFWD stopped before the updating phase, which we
// obtain by using a threshold guaranteeing T=1 is not triggered... instead
// we recompute it directly with the internal helper by monkey-style re-run:
// a copy of the accumulating logic would drift, so we run runHHopFWD with a
// threshold large enough that the updating phase is a no-op is impossible
// here (r1 depends on rmax). We therefore run it and undo the scaling.
func runOneAccumulatingPhase(g *graph.Graph, src int32, alpha, rmax float64, h int) hopRun {
	st := runHop(g, src, alpha, rmax, h, false)
	if st.s == 1 && st.t == 1 {
		return st
	}
	// Undo Eq. (4)/(5): reserves and non-source residues divide by S; the
	// source residue is r1.
	for v := int32(0); int(v) < g.N(); v++ {
		if st.w.InSub.Has(v) && v != src {
			st.w.Reserve[v] /= st.s
			st.w.Residue[v] /= st.s
		}
	}
	st.w.Reserve[src] /= st.s
	for _, v := range st.frontier {
		st.w.Residue[v] /= st.s
	}
	st.w.Residue[src] = st.r1
	return st
}

func lineGraph(n int) *graph.Graph {
	b := graph.NewBuilder(n)
	for i := 0; i < n-1; i++ {
		b.AddEdge(int32(i), int32(i+1))
	}
	return b.MustBuild()
}

// lollipopGraph: a clique head with a tail, a classic stress shape for
// push ordering.
func lollipopGraph() *graph.Graph {
	b := graph.NewBuilder(8)
	for u := int32(0); u < 4; u++ {
		for v := int32(0); v < 4; v++ {
			if u != v {
				b.AddEdge(u, v)
			}
		}
	}
	b.AddEdge(3, 4)
	b.AddEdge(4, 5)
	b.AddEdge(5, 6)
	b.AddEdge(6, 7)
	return b.MustBuild()
}

func groundTruth(t *testing.T, g *graph.Graph, s int32, p algo.Params) []float64 {
	t.Helper()
	truth, err := power.GroundTruth(g, s, p)
	if err != nil {
		t.Fatal(err)
	}
	return truth
}

func TestResAccMeetsAccuracyGuarantee(t *testing.T) {
	// End-to-end Definition 1 check on several graph shapes: for nodes
	// with π > δ the relative error must be ≤ ε (we allow the theoretical
	// failure probability by fixing seeds known to pass — the bound is
	// loose in practice, so any seed passes comfortably).
	graphs := map[string]*graph.Graph{
		"grid": gen.Grid(12, 12),
		"er":   gen.ErdosRenyi(400, 2400, 17),
		"rmat": gen.RMAT(9, 6, 19),
		"ba":   gen.BarabasiAlbert(400, 4, 23),
	}
	for name, g := range graphs {
		p := algo.DefaultParams(g)
		p.Seed = 12345
		for _, variant := range []Variant{Full, NoLoop, NoSubgraph, NoOMFWD} {
			s := Solver{Variant: variant}
			for _, src := range []int32{0, int32(g.N() / 2)} {
				est, err := s.SingleSource(g, src, p)
				if err != nil {
					t.Fatalf("%s/%s: %v", name, variant, err)
				}
				truth := groundTruth(t, g, src, p)
				rel := eval.MaxRelErrAbove(truth, est, p.Delta)
				if rel > p.Epsilon {
					t.Errorf("%s/%s src=%d: max rel err %v > ε=%v", name, variant, src, rel, p.Epsilon)
				}
			}
		}
	}
}

func TestResAccEstimateIsDistribution(t *testing.T) {
	g := gen.RMAT(8, 5, 31)
	p := algo.DefaultParams(g)
	est, _, err := Solver{}.Query(g, 3, p)
	if err != nil {
		t.Fatal(err)
	}
	total := 0.0
	for _, x := range est {
		if x < 0 {
			t.Fatal("negative estimate")
		}
		total += x
	}
	if math.Abs(total-1) > 0.05 {
		t.Fatalf("estimates sum to %v, want ≈1", total)
	}
}

func TestResAccStats(t *testing.T) {
	g := gen.ErdosRenyi(500, 3000, 41)
	p := algo.DefaultParams(g)
	_, stats, err := Solver{}.Query(g, 0, p)
	if err != nil {
		t.Fatal(err)
	}
	if stats.SubgraphSize <= 0 || stats.FrontierSize < 0 {
		t.Errorf("bad subgraph stats: %+v", stats)
	}
	if stats.HopPushes <= 0 {
		t.Error("h-HopFWD performed no pushes")
	}
	if stats.RSumAfterOMFWD > stats.RSumAfterHop+1e-12 {
		t.Errorf("OMFWD increased r_sum: %v -> %v", stats.RSumAfterHop, stats.RSumAfterOMFWD)
	}
	if stats.Walks <= 0 {
		t.Error("remedy simulated no walks")
	}
	if stats.Total() <= 0 {
		t.Error("zero total duration")
	}
}

func TestResAccErrors(t *testing.T) {
	g := gen.Grid(3, 3)
	p := algo.DefaultParams(g)
	if _, err := (Solver{}).SingleSource(g, -1, p); err == nil {
		t.Error("want error for negative source")
	}
	if _, err := (Solver{}).SingleSource(g, int32(g.N()), p); err == nil {
		t.Error("want error for out-of-range source")
	}
	bad := p
	bad.Alpha = 1.5
	if _, err := (Solver{}).SingleSource(g, 0, bad); err == nil {
		t.Error("want error for bad alpha")
	}
}

func TestResAccDisconnectedSource(t *testing.T) {
	// A source with no outgoing edges and no incoming path.
	b := graph.NewBuilder(5)
	b.AddEdge(1, 2)
	b.AddEdge(2, 3)
	g := b.MustBuild()
	p := algo.DefaultParams(g)
	est, err := Solver{}.SingleSource(g, 0, p)
	if err != nil {
		t.Fatal(err)
	}
	if est[0] != 1 {
		t.Fatalf("isolated source should have π(s,s)=1, got %v", est[0])
	}
}

func TestVariantNames(t *testing.T) {
	want := map[Variant]string{
		Full:       "ResAcc",
		NoLoop:     "No-Loop-ResAcc",
		NoSubgraph: "No-SG-ResAcc",
		NoOMFWD:    "No-OFD-ResAcc",
	}
	for v, name := range want {
		if v.String() != name {
			t.Errorf("%d.String()=%q, want %q", v, v.String(), name)
		}
		if (Solver{Variant: v}).Name() != name {
			t.Errorf("solver name mismatch for %q", name)
		}
	}
}

func TestNoLoopMatchesFullEstimates(t *testing.T) {
	// Appendix K: the ablations change cost, not correctness. With the
	// same seed the deterministic phases differ but both must be within ε.
	g := gen.ErdosRenyi(300, 1800, 53)
	p := algo.DefaultParams(g)
	truth := groundTruth(t, g, 7, p)
	for _, v := range []Variant{Full, NoLoop} {
		est, err := Solver{Variant: v}.SingleSource(g, 7, p)
		if err != nil {
			t.Fatal(err)
		}
		if rel := eval.MaxRelErrAbove(truth, est, p.Delta); rel > p.Epsilon {
			t.Errorf("%s rel err %v", v, rel)
		}
	}
}
