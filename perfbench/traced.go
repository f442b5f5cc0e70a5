package main

import (
	"context"
	"fmt"
	"math"
	"os"
	"sort"
	"sync"
	"time"

	"resacc"
)

// span is one timed interval of the traced run. Spans come from the
// benchmark's own code around each call into the library; solver rounds
// are child spans made from resacc.RegisterQueryHook events.
type span struct {
	name       string
	start, end time.Time
	op         *op // the replayed op, nil for set-up spans and rounds
	source     int32
	stats      resacc.Stats // solver rounds only
	children   []*span
}

func (s *span) dur() time.Duration { return s.end.Sub(s.start) }

// self is the span's duration minus the part its children cover.
func (s *span) self() time.Duration {
	type iv struct{ a, b time.Time }
	var ivs []iv
	for _, c := range s.children {
		ivs = append(ivs, iv{maxTime(c.start, s.start), minTime(c.end, s.end)})
	}
	sort.Slice(ivs, func(i, j int) bool { return ivs[i].a.Before(ivs[j].a) })
	// Sweep the intervals in start order, merging overlaps.
	covered := time.Duration(0)
	var end time.Time
	for _, v := range ivs {
		if v.a.Before(end) {
			v.a = end
		}
		if v.b.After(v.a) {
			covered += v.b.Sub(v.a)
			end = v.b
		}
	}
	return s.dur() - covered
}

func maxTime(a, b time.Time) time.Time {
	if a.After(b) {
		return a
	}
	return b
}

func minTime(a, b time.Time) time.Time {
	if a.Before(b) {
		return a
	}
	return b
}

// traceRun is what the in-process replay recorded.
type traceRun struct {
	load, build  *span   // graph.load, engine.new
	ops          []*span // engine.topk, engine.pair, live.apply of the timed window
	rounds       []*span // every solver round of the timed window
	engBefore    resacc.EngineStats
	engMain      resacc.EngineStats // after the main phase
	liveBefore   resacc.LiveStats
	liveAfter    resacc.LiveStats
	topkMisses   []*span // top-k spans with at least one solver round
	topkOthers   []*span // top-k spans the cache or a joined flight answered
	pairFirsts   []*span // first occurrence of each pair key
	unattributed int
}

// replay runs the workload's warm-up and timed window in-process, on an
// engine configured the way rwrd configures it from the workload's flags,
// and records spans around every library call.
func replay(w workload, p *plan, graphPath string) (*traceRun, error) {
	tr := &traceRun{}
	f, err := os.Open(graphPath)
	if err != nil {
		return nil, err
	}
	tr.load = &span{name: "graph.load", start: time.Now()}
	g, err := resacc.LoadEdgeList(f, resacc.LoadOptions{})
	tr.load.end = time.Now()
	f.Close()
	if err != nil {
		return nil, err
	}
	tr.build = &span{name: "engine.new", start: time.Now()}
	eng := resacc.NewEngine(g, resacc.DefaultParams(g), resacc.EngineOptions{
		CacheBytes:  64 << 20, // rwrd's -cache-mb default
		CacheTTL:    w.cacheTTL,
		HotMemBytes: w.hotMB << 20,
		HotMinQPS:   w.hotMinQPS,
	})
	lv, err := eng.StartLive(resacc.LiveOptions{MaxStaleness: maxStaleness, MaxPending: swapPending})
	tr.build.end = time.Now()
	if err != nil {
		eng.Close()
		return nil, err
	}
	defer eng.Close()
	defer lv.Close()

	var (
		mu     sync.Mutex
		rounds []*span
	)
	unhook := resacc.RegisterQueryHook(func(ev resacc.QueryEvent) {
		s := &span{name: "core.round", start: ev.Start, end: ev.Start.Add(ev.Duration), source: ev.Source, stats: ev.Stats}
		mu.Lock()
		rounds = append(rounds, s)
		mu.Unlock()
	})
	defer unhook()

	var spans []*span
	var spanMu sync.Mutex
	exec := func(o *op, r *result) {
		ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
		defer cancel()
		s := &span{op: o, source: o.source, start: time.Now()}
		var err error
		switch o.kind {
		case opTopK:
			s.name = "engine.topk"
			_, err = eng.QueryTopK(ctx, o.source, o.k)
		case opPair:
			s.name = "engine.pair"
			_, err = eng.QueryPair(ctx, o.source, o.target)
		case opEdit:
			s.name = "live.apply"
			_, err = lv.Apply(o.add, o.remove)
		}
		s.end = time.Now()
		if err != nil {
			r.outcome, r.detail = failed, err.Error()
		}
		spanMu.Lock()
		spans = append(spans, s)
		spanMu.Unlock()
	}
	loop := func(ops []op) []result {
		if p.open {
			return openLoop(ops, exec)
		}
		return closedLoop(ops, conns, exec)
	}
	var all []result
	all = append(all, loop(p.warm)...)
	spans = nil
	all = append(all, closedLoop(p.probe[0], 1, exec)...)
	windowStart := time.Now()
	tr.engBefore, tr.liveBefore = eng.Stats(), lv.Stats()
	all = append(all, loop(p.main)...)
	tr.engMain = eng.Stats()
	all = append(all, closedLoop(p.probe[1], 1, exec)...)
	if _, err := lv.Flush(); err != nil {
		return nil, fmt.Errorf("flush: %w", err)
	}
	tr.liveAfter = lv.Stats()
	var t tally
	t.add(all)
	if t.failed > 0 {
		return nil, fmt.Errorf("%d of %d in-process calls failed, first: %s", t.failed, t.attempted, t.firstFailure)
	}

	mu.Lock()
	defer mu.Unlock()
	tr.ops = spans
	bySource := map[int32][]*span{}
	for _, s := range spans {
		if s.name == "engine.topk" {
			bySource[s.source] = append(bySource[s.source], s)
		}
	}
	for _, rd := range rounds {
		if rd.start.Before(windowStart) {
			continue
		}
		tr.rounds = append(tr.rounds, rd)
		// A round belongs to the earliest-started top-k call on its source
		// whose interval contains it: the flight's leader.
		var owner *span
		for _, s := range bySource[rd.source] {
			if !s.start.After(rd.start) && !s.end.Before(rd.end) && (owner == nil || s.start.Before(owner.start)) {
				owner = s
			}
		}
		if owner == nil {
			tr.unattributed++
			continue
		}
		owner.children = append(owner.children, rd)
	}
	for _, s := range spans {
		if s.name == "engine.topk" {
			if len(s.children) > 0 {
				tr.topkMisses = append(tr.topkMisses, s)
			} else {
				tr.topkOthers = append(tr.topkOthers, s)
			}
		}
	}
	// The first op on a pair key is a miss by construction, later ones may
	// hit; ops are scanned in script order, spans sit in completion order.
	firstPair := map[[2]int32]*op{}
	for _, ops := range [][]op{p.probe[0], p.main, p.probe[1]} {
		for i := range ops {
			o := &ops[i]
			if key := [2]int32{o.source, o.target}; o.kind == opPair && firstPair[key] == nil {
				firstPair[key] = o
			}
		}
	}
	for _, s := range spans {
		if s.name == "engine.pair" && firstPair[[2]int32{s.op.source, s.op.target}] == s.op {
			tr.pairFirsts = append(tr.pairFirsts, s)
		}
	}
	return tr, nil
}

// durationsMS returns the span durations (or self times) in ms.
func durationsMS(ss []*span, self bool) []float64 {
	out := make([]float64, 0, len(ss))
	for _, s := range ss {
		d := s.dur()
		if self {
			d = s.self()
		}
		out = append(out, float64(d)/float64(time.Millisecond))
	}
	return out
}

func spansNamed(ss []*span, name string) []*span {
	var out []*span
	for _, s := range ss {
		if s.name == name {
			out = append(out, s)
		}
	}
	return out
}

// layerMetrics assembles the per-layer figures: counts from the untraced
// run's /metrics and /v1/stats deltas, times from the traced spans.
func layerMetrics(h *httpRun, tr *traceRun) map[string]metric {
	m := map[string]metric{}
	put := func(name string, v float64, unit string) { m[name] = metric{v, unit} }
	d := delta(h.before.metrics, h.afterMain.metrics)
	swapD := delta(h.before.metrics, h.after.metrics)
	hits, misses, joins := d.sum("rwr_engine_cache_hits_total"), d.sum("rwr_engine_cache_misses_total"), d.sum("rwr_engine_dedup_joins_total")
	lookups := hits + misses

	put("rwrd.overhead_p50_ms", median(h.overheadMS), "ms")
	put("engine.hit_ratio", ratio(hits, lookups), "ratio")
	put("engine.join_ratio", ratio(joins, lookups), "ratio")
	put("engine.hit_ms", median(durationsMS(tr.topkOthers, false)), "ms")
	put("engine.compute_ms", median(durationsMS(tr.topkMisses, false)), "ms")
	put("engine.self_ms", median(durationsMS(tr.topkMisses, true)), "ms")
	put("engine.degraded", float64(h.degraded), "count")
	put("pressure.sojourn_ms", h.afterMain.stats.Pressure.SojournMS, "ms")
	put("pressure.shed", d.sum("rwr_engine_shed_total"), "count")

	var hop, om, rem time.Duration
	var pushes, walks, sweeps, reused float64
	for _, rd := range tr.rounds {
		st := rd.stats
		hop, om, rem = hop+st.HopFWD, om+st.OMFWD, rem+st.Remedy
		pushes += float64(st.HopPushes + st.OMFWDPushes)
		walks += float64(st.Walks)
		sweeps += float64(st.HopSweeps + st.OMFWDSweeps)
		reused += float64(st.ReusedWalks)
	}
	nMiss := float64(len(tr.topkMisses))
	perMiss := func(x float64) float64 { return ratio(x, nMiss) }
	msPerMiss := func(x time.Duration) float64 { return perMiss(float64(x) / float64(time.Millisecond)) }
	put("core.runs_per_miss", perMiss(float64(len(tr.rounds)-tr.unattributed)), "count")
	put("core.hopfwd_ms", msPerMiss(hop), "ms")
	put("core.omfwd_ms", msPerMiss(om), "ms")
	put("core.remedy_ms", msPerMiss(rem), "ms")
	put("core.pushes_per_miss", perMiss(pushes), "count")
	put("core.walks_per_miss", perMiss(walks), "count")
	put("core.sweeps_per_miss", perMiss(sweeps), "count")

	hotHits := d.sum("rwr_hot_hits_total")
	hotAll := hotHits + d.sum("rwr_hot_partial_total") + d.sum("rwr_hot_misses_total")
	put("hotset.hit_ratio", ratio(hotHits, hotAll), "ratio")
	put("hotset.reused_walks_per_miss", perMiss(reused), "count")
	put("hotset.builds", d.sum("rwr_hot_builds_total"), "count")
	put("hotset.build_ms", 1000*ratio(d.sum("rwr_hot_build_seconds_sum"), d.sum("rwr_hot_build_seconds_count")), "ms")
	put("hotset.store_mb", h.afterMain.metrics.sum("rwr_hot_store_bytes")/(1<<20), "MiB")

	put("bippr.pair_ms", median(durationsMS(tr.pairFirsts, false)), "ms")
	put("live.apply_ms", median(durationsMS(spansNamed(tr.ops, "live.apply"), false)), "ms")
	swaps := swapD.sum("rwr_graph_swaps_total")
	put("live.swaps", swaps, "count")
	put("live.swap_ms", 1000*ratio(swapD.sum("rwr_graph_swap_seconds_sum"), swapD.sum("rwr_graph_swap_seconds_count")), "ms")
	put("live.invalidated_per_swap", ratio(h.after.stats.Live.Invalidated-h.before.stats.Live.Invalidated, swaps), "count")
	put("live.full_purges", h.after.stats.Live.FullSwaps-h.before.stats.Live.FullSwaps, "count")

	put("graph.load_s", tr.load.dur().Seconds(), "s")
	put("engine.new_s", tr.build.dur().Seconds(), "s")
	put("runtime.gc_cycles", d.sum("go_gc_cycles_total"), "count")
	put("runtime.gc_pause_ms", 1000*h.afterMain.metrics.sum("go_gc_pause_p99_seconds"), "ms")
	put("runtime.heap_inuse_mb", h.afterMain.metrics.sum("go_memstats_heap_inuse_bytes")/(1<<20), "MiB")

	allTopk := append(append([]*span(nil), tr.topkMisses...), tr.topkOthers...)
	put("trace.engine_p50_ratio", ratio(median(durationsMS(allTopk, false)), median(h.serverMS)), "ratio")
	return m
}

// crossCheck compares the counts of the traced run with the untraced
// run's server-side deltas; a disagreement beyond tolerance means the
// replay did not reproduce the workload.
func crossCheck(h *httpRun, tr *traceRun) []string {
	d := delta(h.before.metrics, h.afterMain.metrics)
	reads := float64(h.topkReads)
	tReads := float64(len(tr.topkMisses) + len(tr.topkOthers))
	hits, lookups := d.sum("rwr_engine_cache_hits_total"), d.sum("rwr_engine_cache_hits_total")+d.sum("rwr_engine_cache_misses_total")
	tHits := tr.engMain.Hits - tr.engBefore.Hits
	tLookups := tHits + tr.engMain.Misses - tr.engBefore.Misses
	var walks float64
	for _, rd := range tr.rounds {
		walks += float64(rd.stats.Walks)
	}
	type pair struct {
		name          string
		http, traced  float64
		rel, absSlack float64
	}
	checks := []pair{
		{"solver runs per top-k read", ratio(d.sum("rwr_queries_total"), reads), ratio(float64(len(tr.rounds)), tReads), 0.25, 0.1},
		{"walks per top-k read", ratio(d.sum("rwr_query_walks_sum"), reads), ratio(walks, tReads), 0.35, 50},
		{"engine hit ratio", ratio(hits, lookups), ratio(tHits, tLookups), 0, 0.1},
		{"live swaps", delta(h.before.metrics, h.after.metrics).sum("rwr_graph_swaps_total"), float64(tr.liveAfter.Swaps - tr.liveBefore.Swaps), 0, 1},
	}
	var out []string
	for _, c := range checks {
		if math.Abs(c.http-c.traced) > c.rel*math.Max(c.http, c.traced)+c.absSlack {
			out = append(out, fmt.Sprintf("%s: untraced %.4g, traced %.4g", c.name, c.http, c.traced))
		}
	}
	return out
}
