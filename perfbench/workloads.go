package main

import (
	"fmt"
	"strconv"
	"time"
)

// workload is one named traffic mix and the rwrd configuration it runs
// against. The traced run builds its in-process engine from the same
// fields, so the two runs cannot drift apart.
type workload struct {
	name string
	// rate is the open-loop arrival rate per second; 0 runs a closed loop.
	rate float64
	// cacheTTL, hotMB and hotMinQPS configure the result cache and the hot
	// tier (-cache-ttl, -hot-mem-mb, -hot-min-qps).
	cacheTTL  time.Duration
	hotMB     int64
	hotMinQPS float64
}

// Edits stay pending until the run's final flush: the staleness timer is
// longer than any run and the swap-triggering edit count above any run's
// edit count, so the timed window is served from the generated graph.
const (
	maxStaleness = time.Hour
	swapPending  = 10_000_000
)

// Shape of the inputs.
const (
	rmatScale      = 13    // 8192 node ids, the twitter-s shape at -scale 0.1
	rmatEdgeFactor = 35    // edge draws per node id
	topK           = 10    // k of every timed top-k read
	zipfExponent   = 1.5   // skew of the open-loop sources
	zipfHeads      = 4     // independent rank orders the open-loop sources mix
	pairEvery      = 20    // every pairEvery-th open-loop op is a pair read
	editAdds       = 4     // inserts per edit batch
	editRemoves    = 4     // deletes per edit batch
	warmSeconds    = 7.0   // open-loop warm-up: three 2 s hot-warmer cycles and some
	uniformRate    = 40.0  // closed-loop top-k misses per run second
	warmReads      = 100   // closed-loop warm-up misses
	probeRate      = 100.0 // closed-loop pair+edit probe ops per run second
)

var workloads = []workload{
	{name: "uniform-miss"},
	{name: "zipf-hot", rate: 25, cacheTTL: 5 * time.Second, hotMB: 16, hotMinQPS: 1},
}

func lookupWorkload(name string) (workload, error) {
	for _, w := range workloads {
		if w.name == name {
			return w, nil
		}
	}
	return workload{}, fmt.Errorf("unknown workload %q", name)
}

// rwrdArgs is the rwrd command line for the workload on graphPath.
func (w workload) rwrdArgs(graphPath string) []string {
	args := []string{"-graph", graphPath, "-trace-buffer", "1",
		"-live", "-max-staleness", maxStaleness.String(),
		"-swap-pending", strconv.Itoa(swapPending)}
	if w.cacheTTL > 0 {
		args = append(args, "-cache-ttl", w.cacheTTL.String())
	}
	if w.hotMB > 0 {
		args = append(args, "-hot-mem-mb", strconv.FormatInt(w.hotMB, 10),
			"-hot-min-qps", strconv.FormatFloat(w.hotMinQPS, 'g', -1, 64))
	}
	return args
}

// plan is the fixed request script of one run, a pure function of the
// workload, the seed and the run length.
type plan struct {
	open bool // warm and main run open-loop on their due times
	warm []op // untimed
	main []op // the timed window read_cpu_ms comes from
	// probe runs closed-loop on one connection in two halves, right before
	// and right after main: pair and write cost come from it, on a
	// server with no other load, sampled at both ends of the window rather
	// than in one stretch of a host whose speed drifts.
	probe [2][]op
}

func buildPlan(w workload, seed uint64, seconds int, n int, edges [][2]int32) (*plan, error) {
	p := &plan{open: w.rate > 0}
	// Closed-loop reads take distinct sources.
	if distinct := int(uniformRate*float64(seconds)) + warmReads; distinct > n {
		return nil, fmt.Errorf("%d seconds need %d distinct sources, the graph has %d nodes", seconds, distinct, n)
	}
	edits := newEditStream(n, edges, seed)
	targets := newRand(seed, streamPairTarget)
	// The probe alternates distinct uniform pair reads and edit batches.
	var probe []op
	for i := 0; i < int(probeRate*float64(seconds)); i++ {
		if i%2 == 0 {
			probe = append(probe, op{kind: opPair, source: int32(targets.IntN(n)), target: int32(targets.IntN(n))})
		} else {
			add, remove := edits.batch(editAdds, editRemoves)
			probe = append(probe, op{kind: opEdit, add: add, remove: remove})
		}
	}
	half := len(probe) / 2 &^ 1 // even, so each half alternates from a pair
	p.probe = [2][]op{probe[:half], probe[half:]}
	if !p.open {
		// Every read is a distinct source of one seeded permutation, so
		// each is a cache miss; the warm-up takes a disjoint prefix.
		perm := newRand(seed, streamPerm).Perm(n)
		next := func() int32 { s := int32(perm[0]); perm = perm[1:]; return s }
		for i := 0; i < warmReads; i++ {
			p.warm = append(p.warm, op{kind: opTopK, source: next(), k: topK})
		}
		for i := 0; i < int(uniformRate*float64(seconds)); i++ {
			p.main = append(p.main, op{kind: opTopK, source: next(), k: topK})
		}
		return p, nil
	}
	z := newZipf(n, zipfExponent, seed)
	arrivals := newRand(seed, streamArrivals)
	// Every pairEvery-th op of the open-loop stream is a pair read, the
	// rest are top-k reads.
	stream := func(count int) []op {
		due := poissonDue(count, w.rate, arrivals)
		ops := make([]op, count)
		for i := range ops {
			if i%pairEvery == 4 {
				ops[i] = op{kind: opPair, source: z.next(), target: int32(targets.IntN(n))}
			} else {
				ops[i] = op{kind: opTopK, source: z.next(), k: topK}
			}
			ops[i].due = due[i]
		}
		return ops
	}
	p.warm = stream(int(w.rate * warmSeconds))
	p.main = stream(int(w.rate * float64(seconds)))
	return p, nil
}
