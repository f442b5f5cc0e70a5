// Command perfbench is the repository's end-to-end benchmark: it drives a
// fresh rwrd over HTTP with a seeded, fixed-length request script, checks
// a sample of the answers against power-iteration ground truth, and prints
// one JSON line of metrics. With -trace 1 it also replays the same script
// in-process against the library and prints per-layer metrics instead.
//
//	bash perfbench/run.sh --workload zipf-hot --seed 1 --seconds 32 --trace 0
//
// run.sh builds rwrd and this command from the checkout and passes -rwrd
// and -work; see README.md for the workloads and the metric definitions.
package main

import (
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"math/rand/v2"
	"net/http"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"time"
)

// metric is one reported figure.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// report is the last line of standard output.
type report struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

func main() {
	var (
		name    = flag.String("workload", "", "workload name: uniform-miss or zipf-hot")
		seed    = flag.Uint64("seed", 1, "seed every input of the run derives from")
		seconds = flag.Int("seconds", 32, "run length; sets how many requests the fixed script holds")
		trace   = flag.Int("trace", 0, "1 = also replay in-process and report per-layer metrics")
		rwrd    = flag.String("rwrd", "", "rwrd binary")
		work    = flag.String("work", ".bench_build", "directory for the generated graph and rwrd logs")
	)
	flag.Parse()
	rep, err := run(*name, *seed, *seconds, *trace == 1, *rwrd, *work)
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
	line, err := json.Marshal(rep)
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
	fmt.Println(string(line))
	if !rep.Correct {
		os.Exit(1)
	}
}

func run(name string, seed uint64, seconds int, traced bool, rwrd, work string) (*report, error) {
	w, err := lookupWorkload(name)
	if err != nil {
		return nil, err
	}
	if rwrd == "" || seconds < 1 {
		return nil, errors.New("need -rwrd and -seconds ≥ 1")
	}
	if err := os.MkdirAll(work, 0o755); err != nil {
		return nil, err
	}
	edges, n := rmat(rmatScale, rmatEdgeFactor, seed)
	graphPath := filepath.Join(work, fmt.Sprintf("graph-%d.txt", seed))
	if err := writeEdgeList(graphPath, edges); err != nil {
		return nil, fmt.Errorf("write graph: %w", err)
	}
	defer os.Remove(graphPath)
	p, err := buildPlan(w, seed, seconds, n, edges)
	if err != nil {
		return nil, err
	}

	h, err := runHTTP(w, seed, p, rwrd, graphPath, filepath.Join(work, "rwrd.log"), n, edges)
	if err != nil {
		return nil, err
	}
	for _, line := range h.notes {
		fmt.Println(line)
	}
	rep := &report{
		Correct:   len(h.violations) == 0 && !h.behind,
		Attempted: h.tally.attempted,
		Failed:    h.tally.refused + h.tally.failed,
	}
	for _, v := range h.violations {
		fmt.Fprintln(os.Stderr, "perfbench: answer outside its guarantee:", v)
	}
	if !traced {
		rep.Metrics = h.endToEnd
		return rep, nil
	}
	tr, err := replay(w, p, graphPath)
	if err != nil {
		return nil, fmt.Errorf("traced run: %w", err)
	}
	rep.Metrics = layerMetrics(h, tr)
	for _, m := range crossCheck(h, tr) {
		fmt.Fprintln(os.Stderr, "perfbench: traced run disagrees with the untraced run:", m)
		rep.Correct = false
	}
	return rep, nil
}

// httpRun is everything the untraced run measured.
type httpRun struct {
	endToEnd   map[string]metric
	tally      tally
	behind     bool
	violations []string
	notes      []string

	timed     []result // main, then probe results
	topkReads int
	// Snapshots: before the window, after its main phase (request counts,
	// gauges) and after the final flush (edit and swap counts).
	before     snapshot
	afterMain  snapshot
	after      snapshot
	degraded   int
	overheadMS []float64 // client latency from send minus rwrd's query_ms
	serverMS   []float64 // rwrd's query_ms for top-k reads
}

const setups = 9

func runHTTP(w workload, seed uint64, p *plan, bin, graphPath, logPath string, n int, edges [][2]int32) (*httpRun, error) {
	h := &httpRun{endToEnd: map[string]metric{}}
	// Set up several times and keep the median, so one slow exec does not
	// decide setup_s; the last instance serves the run. setup_s is rwrd's
	// CPU time from exec to ready; the wall time goes to the notes.
	var setupS, setupWallS []float64
	var d *daemon
	for i := 0; i < setups; i++ {
		var dur time.Duration
		var err error
		d, dur, err = startDaemon(bin, w.rwrdArgs(graphPath), logPath)
		if err != nil {
			return nil, err
		}
		setupS = append(setupS, d.cpu().Seconds())
		setupWallS = append(setupWallS, dur.Seconds())
		if i < setups-1 {
			d.stop()
		}
	}
	defer d.stop()
	client := &http.Client{Transport: &http.Transport{
		MaxConnsPerHost: conns, MaxIdleConnsPerHost: conns, DisableCompression: true,
	}, Timeout: 60 * time.Second}
	defer client.CloseIdleConnections()
	exec := httpExecutor(client, d.base)

	var st serverStats
	if err := getJSON(client, d.base+"/v1/stats", &st); err != nil {
		return nil, err
	}
	if st.Nodes != n || st.Edges != len(edges) {
		return nil, fmt.Errorf("rwrd loaded %d nodes / %d edges, the benchmark generated %d / %d",
			st.Nodes, st.Edges, n, len(edges))
	}
	gu := guarantee{epsilon: st.Epsilon, delta: 1 / float64(n), alpha: st.Alpha}

	loop := func(ops []op) []result {
		if p.open {
			return openLoop(ops, exec)
		}
		return closedLoop(ops, conns, exec)
	}
	var wt tally
	warm := loop(p.warm)
	wt.add(warm)
	if wt.refused+wt.failed > 0 {
		return nil, fmt.Errorf("warm-up: %d of %d requests failed, first: %s", wt.refused+wt.failed, wt.attempted, wt.firstFailure)
	}

	// One connection: the probe times the pair and write paths alone, and
	// each request's CPU time is its own.
	probeExec := withCPU(exec, d.cpu)
	probeRes := closedLoop(p.probe[0], 1, probeExec)
	var err error
	if h.before, err = takeSnapshot(client, d.base); err != nil {
		return nil, err
	}
	t0, cpu0 := time.Now(), d.cpu()
	mainRes := loop(p.main)
	window, windowCPU := time.Since(t0), d.cpu()-cpu0
	if h.afterMain, err = takeSnapshot(client, d.base); err != nil {
		return nil, err
	}
	after := closedLoop(p.probe[1], 1, probeExec)
	probeRes = append(probeRes, after...)
	h.timed = append(mainRes, probeRes...)
	h.tally.add(h.timed)
	if err := postFlush(client, d.base); err != nil {
		return nil, err
	}
	if h.after, err = takeSnapshot(client, d.base); err != nil {
		return nil, err
	}

	if err := h.summarize(mainRes, probeRes, window, windowCPU, p.open); err != nil {
		return nil, err
	}
	h.check(seed, exec, gu, n, edges)
	if err := d.alive(); err != nil {
		return nil, err
	}
	rss, err := d.peakRSSMB()
	if err != nil {
		return nil, err
	}
	h.endToEnd["setup_s"] = metric{median(setupS), "s"}
	h.endToEnd["rss_mb"] = metric{rss, "MiB"}
	h.notes = append(h.notes, fmt.Sprintf("setup_s samples %v CPU s (wall %v); failure share %d/%d (429: %d, failed: %d); degraded 206: %d",
		setupS, setupWallS, h.tally.refused+h.tally.failed, h.tally.attempted, h.tally.refused, h.tally.failed, h.degraded))
	if h.tally.firstFailure != "" {
		h.notes = append(h.notes, "first failure: "+h.tally.firstFailure)
	}
	return h, nil
}

func postFlush(c *http.Client, base string) error {
	resp, err := c.Post(base+"/v1/edges", "application/json", strings.NewReader(`{"flush":true}`))
	if err != nil {
		return fmt.Errorf("flush: %w", err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return fmt.Errorf("flush: status %d", resp.StatusCode)
	}
	return nil
}

// summarize turns the timed results into the end-to-end metrics: rwrd CPU
// time per read over the window, and the median CPU time of a pair read
// and of an edit batch on the probe's single connection. CPU time leaves
// out what the hypervisor steals, which moves the wall clock of a whole
// run by half on a shared host. The wall-clock latencies go to the notes.
// Every percentile obeys the minBeyond rule; one that cannot is an error.
func (h *httpRun) summarize(mainRes, probeRes []result, window, windowCPU time.Duration, open bool) error {
	reads := latencies(mainRes, opTopK)
	type pct struct {
		name, unit string
		xs         []float64
		q          float64
		metric     bool
	}
	for _, x := range []pct{
		{"pair_cpu_ms", "ms", cpuTimes(probeRes, opPair), 0.50, true},
		{"write_cpu_ms", "ms", cpuTimes(probeRes, opEdit), 0.50, true},
		{"wall read p50", "ms", reads, 0.50, false}, {"wall read p95", "ms", reads, 0.95, false},
		{"wall pair p50", "ms", latencies(probeRes, opPair), 0.50, false},
		{"wall write p50", "ms", latencies(probeRes, opEdit), 0.50, false},
	} {
		v, err := percentile(x.xs, x.q)
		if err != nil {
			return fmt.Errorf("%s: %w", x.name, err)
		}
		if x.metric {
			h.endToEnd[x.name] = metric{v, x.unit}
		}
		h.notes = append(h.notes, fmt.Sprintf("%s = %.3f %s over %d samples", x.name, v, x.unit, len(x.xs)))
	}
	if len(reads) == 0 {
		return errors.New("no answered top-k read in the window")
	}
	cpuMS := float64(windowCPU) / float64(time.Millisecond) / float64(len(reads))
	h.endToEnd["read_cpu_ms"] = metric{cpuMS, "ms"}
	h.notes = append(h.notes, fmt.Sprintf("read_cpu_ms = rwrd CPU %.2fs over %d answered reads; window %.2fs wall, %.1f reads/s",
		windowCPU.Seconds(), len(reads), window.Seconds(), float64(len(reads))/window.Seconds()))

	for _, r := range mainRes {
		if r.op.kind != opTopK || r.outcome > okDegraded {
			continue
		}
		h.topkReads++
		if r.outcome == okDegraded {
			h.degraded++
		}
		h.serverMS = append(h.serverMS, r.serverMS)
		h.overheadMS = append(h.overheadMS, float64(r.done.Sub(r.sent))/float64(time.Millisecond)-r.serverMS)
	}
	if open {
		// Lateness is sent minus due: the sleep's overshoot for an op a
		// worker took early, the queue wait for one that fell due while
		// both workers were busy.
		var over, wait []float64
		for _, r := range mainRes {
			ms := float64(r.late) / float64(time.Millisecond)
			if r.queued {
				wait = append(wait, ms)
			} else {
				over = append(over, ms)
			}
		}
		worst := 0.0
		for _, w := range wait {
			worst = max(worst, w)
		}
		h.notes = append(h.notes, fmt.Sprintf("open-loop lateness: %d sends on time, median overshoot %.3f ms; %d queued behind busy workers, median wait %.3f ms, max %.3f ms",
			len(over), median(over), len(wait), median(wait), worst))
		// The client fell behind its schedule when more than one send in a
		// hundred queued for a full second.
		sort.Float64s(wait)
		if n := len(wait); n > 0 && n > len(mainRes)/100 && wait[n-len(mainRes)/100-1] > 1000 {
			h.behind = true
			h.notes = append(h.notes, "INVALID: the open-loop generator fell behind its schedule")
		}
	}
	return nil
}

// check compares a seeded sample of served answers with ground truth:
// answers from the timed window against the generated graph when no swap
// published an edit during it, and fresh post-flush answers against the
// benchmark's own replay of every edit it sent.
func (h *httpRun) check(seed uint64, exec executor, gu guarantee, n int, edges [][2]int32) {
	r := newRand(seed, streamCheck)
	var baseSample []result
	// The final flush is the run's only swap unless edits became visible
	// earlier; only then do the window's answers describe the generated graph.
	if h.after.stats.Live.Swaps-h.before.stats.Live.Swaps <= 1 {
		baseSample = sampleAnswered(h.timed, opTopK, 5, r)
		baseSample = append(baseSample, sampleAnswered(h.timed, opPair, 5, r)...)
	}
	var applied []op
	for _, res := range h.timed {
		if res.outcome <= okDegraded {
			applied = append(applied, *res.op)
		}
	}
	final := applyEdits(edges, applied)
	if h.after.stats.Edges != len(final) {
		h.violations = append(h.violations, fmt.Sprintf("served graph has %d edges after the flush, the benchmark's replay %d",
			h.after.stats.Edges, len(final)))
	}
	// Fresh keys: k=11 is never used by the timed reads, and pair targets
	// are redrawn until the key is new.
	used := map[[2]int32]bool{}
	for _, res := range h.timed {
		if res.op.kind == opPair {
			used[[2]int32{res.op.source, res.op.target}] = true
		}
	}
	var fresh []op
	for len(fresh) < 10 {
		s, t := int32(r.IntN(n)), int32(r.IntN(n))
		if len(fresh) < 5 {
			fresh = append(fresh, op{kind: opTopK, source: s, k: topK + 1})
		} else if !used[[2]int32{s, t}] {
			fresh = append(fresh, op{kind: opPair, source: s, target: t})
		}
	}
	freshRes := closedLoop(fresh, conns, exec)
	checked, rankings := 0, 0
	for _, set := range []struct {
		rs []result
		g  *csr
	}{{baseSample, newCSR(n, edges)}, {freshRes, newCSR(n, final)}} {
		truth := map[int32][]float64{}
		for _, res := range set.rs {
			if res.outcome > okDegraded {
				h.violations = append(h.violations, fmt.Sprintf("check query %s source %d failed: %s", res.op.kind, res.op.source, res.detail))
				continue
			}
			if truth[res.op.source] == nil {
				truth[res.op.source] = set.g.rwr(res.op.source, gu.alpha)
			}
			for _, a := range res.answers {
				checked++
				if err := gu.check(a, truth[a.source]); err != nil {
					h.violations = append(h.violations, err.Error())
				}
			}
			if res.op.kind == opTopK {
				rankings++
				if err := gu.checkRanking(res.op.k, res.answers, truth[res.op.source]); err != nil {
					h.violations = append(h.violations, err.Error())
				}
			}
		}
	}
	h.notes = append(h.notes, fmt.Sprintf("correctness: %d served scores and %d rankings checked against power iteration (%d answers from the timed window), %d outside their guarantee",
		checked, rankings, len(baseSample), len(h.violations)))
}

// sampleAnswered picks up to k answered results of kind at random.
func sampleAnswered(rs []result, kind opKind, k int, r *rand.Rand) []result {
	var pool []result
	for _, res := range rs {
		if res.op.kind == kind && res.outcome <= okDegraded {
			pool = append(pool, res)
		}
	}
	r.Shuffle(len(pool), func(i, j int) { pool[i], pool[j] = pool[j], pool[i] })
	return pool[:min(k, len(pool))]
}
