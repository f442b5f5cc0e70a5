package core

import (
	"resacc/internal/algo"
	"resacc/internal/crash"
	"resacc/internal/graph"
	"resacc/internal/hotset"
)

// BuildEndpointSet runs the query pipeline's two push phases for src — the
// deterministic half of a query — and then records the remedy phase's walk
// endpoints into a compressed set instead of folding them into scores (see
// algo.RecordEndpoints). A later query for src on the same graph with the
// same params reproduces the same residues push-for-push, so attaching the
// returned set as Solver.Endpoints makes that query's remedy phase replay
// the stored endpoints and simulate nothing (boost ≥ 1), or only the
// shortfall (residues drifted, e.g. a scoped-swap survivor).
//
// Walk recording uses p.Seed, the same seed a query's fresh walks would
// use, so a full replay reproduces the query's own walk multiset. boost
// scales the recorded walk count per candidate (≤ 0 means 1); values > 1
// buy shortfall headroom at proportional memory cost.
//
// The caller fills in Epoch on the returned set; Source is set here. The
// build borrows and returns a pooled workspace just like QueryCtx, and a
// panic discards the workspace rather than repooling it.
func (s Solver) BuildEndpointSet(g *graph.Graph, src int32, p algo.Params, boost float64) (set *hotset.Set, err error) {
	if err := p.Validate(g); err != nil {
		return nil, err
	}
	if err := algo.CheckSource(g, src); err != nil {
		return nil, err
	}
	pool := s.pool()
	w := pool.Get(g.N())
	defer func() {
		if v := recover(); v != nil {
			set = nil
			err = crash.Capture("core: endpoint set build", v)
			return
		}
		pool.Put(w)
	}()

	// Same phase-1/2 dispatch as QueryWSCtx, minus the per-phase stats and
	// cancellation: builds run on the warmer's own goroutine with no client
	// deadline attached.
	denseMass := s.denseMass(g)
	var hop hopInfo
	switch s.Variant {
	case NoLoop:
		hop = runRestrictedForward(g, src, p.Alpha, p.RMaxHop, p.H, w, denseMass, nil)
	case NoSubgraph:
		hop = runHHopFWD(g, src, p.Alpha, p.RMaxHop, p.H, true, w, denseMass, nil)
	default:
		hop = runHHopFWD(g, src, p.Alpha, p.RMaxHop, p.H, false, w, denseMass, nil)
	}
	pushes := hop.pushes
	if s.Variant != NoOMFWD && s.Variant != NoSubgraph {
		om := runOMFWD(g, p.Alpha, p.RMaxF, w, hop.frontier, denseMass, nil)
		pushes += om.pushes
	}
	algo.AddPushes(pushes)

	set = algo.RecordEndpoints(g, p, w, p.Seed, s.Alias, boost)
	set.Source = src
	return set, nil
}
