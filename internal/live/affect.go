package live

import "resacc/internal/graph"

// AffectConfig tunes the delta-affected-region expansion of a snapshot
// swap. The zero value is completed by its user (the Manager) with the
// serving parameters.
type AffectConfig struct {
	// Alpha is the restart probability of the served queries.
	Alpha float64
	// Tolerance is the absolute (L∞) score movement tolerated on cached
	// results that are NOT invalidated: a source outside the affected set
	// has every π(s,·) entry within Tolerance of its value on the new
	// snapshot. The serving default ties it to the engine's own accuracy
	// regime, ε·δ — scoped invalidation then adds at most one more unit of
	// the error the approximation already permits.
	Tolerance float64
	// MaxFrac aborts scoping when the affected set exceeds this fraction
	// of all nodes (≤ 0 = 0.25): past that point a full purge is cheaper
	// than predicate-walking the cache for a set that covers it anyway.
	MaxFrac float64
	// MaxPushes bounds the expansion work (≤ 0 = 1<<17). Exceeding it
	// aborts scoping — the delta reaches too far to bound cheaply, so the
	// caller falls back to a full purge.
	MaxPushes int
}

func (c AffectConfig) withDefaults() AffectConfig {
	if c.MaxFrac <= 0 {
		c.MaxFrac = 0.25
	}
	if c.MaxPushes <= 0 {
		c.MaxPushes = 1 << 17
	}
	return c
}

// AffectedSources computes, on the pre-swap graph g, the set of source
// nodes whose cached RWR vectors the edit delta may have moved by more
// than cfg.Tolerance. changed lists the distinct nodes whose out-rows the
// delta touches (the source endpoints of inserted/deleted edges).
//
// The bound is OSP's offset argument (Yoon et al., arXiv:1712.00595) read
// backwards: changing the transition row of u perturbs π_s by at most
// 2·(1−α)/α · π_s(u), so only sources with Σ_{u∈changed} π_s(u) ≥
// Tolerance·α/(2(1−α)) =: τ can move past the tolerance. That aggregate is
// estimated with one multi-target backward search (Andersen et al. 2007)
// seeded with residue 1 at every changed node and pushed along in-edges
// until all residues sit below τ/2; the invariant
// Σπ_s(u) = reserve(s) + Σ_w π(s,w)·residue(w) and Σ_w π(s,w) ≤ 1 then
// give Σπ_s(u) ≤ reserve(s) + τ/2, so the affected set is exactly
// {s : reserve(s) ≥ τ/2}.
//
// ok=false means scoping aborted — the expansion blew past cfg.MaxPushes
// or the affected set past cfg.MaxFrac — and the caller must treat every
// source as affected (full purge). The expansion is sparse (maps, not
// O(n) vectors): a swap should not pay O(n) to save cache entries.
func AffectedSources(g *graph.Graph, changed []int32, cfg AffectConfig) (affected map[int32]struct{}, ok bool) {
	cfg = cfg.withDefaults()
	if len(changed) == 0 {
		return nil, true
	}
	tau := cfg.Tolerance * cfg.Alpha / (2 * (1 - cfg.Alpha))
	if tau <= 0 {
		return nil, false // no meaningful tolerance: everything is affected
	}
	theta := tau / 2

	residue := make(map[int32]float64, len(changed)*4)
	reserve := make(map[int32]float64, len(changed)*4)
	inQueue := make(map[int32]bool, len(changed)*4)
	queue := make([]int32, 0, len(changed))
	for _, u := range changed {
		if residue[u] == 0 && !inQueue[u] {
			queue = append(queue, u)
			inQueue[u] = true
		}
		residue[u] += 1
	}

	pushes := 0
	for head := 0; head < len(queue); head++ {
		w := queue[head]
		inQueue[w] = false
		rw := residue[w]
		if rw < theta {
			continue
		}
		pushes++
		if pushes > cfg.MaxPushes {
			return nil, false
		}
		residue[w] = 0
		// Last-step decomposition, mirroring internal/algo/backward's
		// dead-end semantics: a walk stops at an out-degree-0 node with
		// certainty, so a dead end converts its full residue to reserve
		// and amplifies the upstream shares by 1/α.
		share := (1 - cfg.Alpha) * rw
		if g.OutDegree(w) == 0 {
			reserve[w] += rw
			share = rw * (1 - cfg.Alpha) / cfg.Alpha
		} else {
			reserve[w] += cfg.Alpha * rw
		}
		for _, x := range g.In(w) {
			residue[x] += share / float64(g.OutDegree(x))
			if !inQueue[x] && residue[x] >= theta {
				inQueue[x] = true
				queue = append(queue, x)
			}
		}
	}

	maxAffected := int(cfg.MaxFrac * float64(g.N()))
	affected = make(map[int32]struct{}, len(changed)*2)
	for s, p := range reserve {
		if p >= theta {
			affected[s] = struct{}{}
			if len(affected) > maxAffected {
				return nil, false
			}
		}
	}
	// The changed nodes themselves always belong: π_u(u) ≥ α, and their
	// own out-rows moved, whatever the expansion estimated.
	for _, u := range changed {
		affected[u] = struct{}{}
	}
	if len(affected) > maxAffected {
		return nil, false
	}
	return affected, true
}

// ChangedSources extracts the distinct source endpoints of an edit delta —
// the nodes whose transition rows the swap rewrites.
func ChangedSources(added, removed [][2]int32) []int32 {
	seen := make(map[int32]struct{}, len(added)+len(removed))
	out := make([]int32, 0, len(added)+len(removed))
	for _, lists := range [2][][2]int32{added, removed} {
		for _, e := range lists {
			if _, ok := seen[e[0]]; !ok {
				seen[e[0]] = struct{}{}
				out = append(out, e[0])
			}
		}
	}
	return out
}
