package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"sync"
	"sync/atomic"
	"time"
)

// conns is how many requests the benchmark has in flight at most: one per
// CPU of the 2-CPU host it was built on, so the client never needs more
// threads than the machine has.
const conns = 2

// outcome is what became of one op.
type outcome int

const (
	okFull     outcome = iota // 200
	okDegraded                // 206: a bounded partial answer
	refused                   // 429
	failed                    // 5xx, 504, other statuses, transport errors
)

// result records one executed op. Latency runs from the send time, except
// for an open-loop op that fell due while its worker was still busy: that
// one is timed from its due time, so the wait counts.
type result struct {
	op       *op
	outcome  outcome
	detail   string
	sent     time.Time
	done     time.Time
	late     time.Duration // sent − due, open loop only
	queued   bool          // open loop: the op fell due before a worker was free
	latency  time.Duration
	serverMS float64       // query_ms rwrd reports for a top-k read
	cpu      time.Duration // rwrd CPU time from send to reply; see withCPU
	answers  []answer
}

// executor performs one op and fills outcome, answers and serverMS.
type executor func(o *op, r *result)

// withCPU wraps exec to record in each result the CPU time rwrd used from
// the send to the reply. It is the request's own cost only on one
// connection, when nothing else runs on the server.
func withCPU(exec executor, clock func() time.Duration) executor {
	return func(o *op, r *result) {
		c0 := clock()
		exec(o, r)
		r.cpu = clock() - c0
	}
}

// closedLoop runs ops on the given number of workers, each sending its next
// op as soon as its previous one completed. It returns the results in op
// order.
func closedLoop(ops []op, workers int, exec executor) []result {
	res := make([]result, len(ops))
	var next atomic.Int64
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				i := int(next.Add(1) - 1)
				if i >= len(ops) {
					return
				}
				r := &res[i]
				r.op = &ops[i]
				r.sent = time.Now()
				exec(r.op, r)
				r.done = time.Now()
				r.latency = r.done.Sub(r.sent)
			}
		}()
	}
	wg.Wait()
	return res
}

// openLoop sends each op at its due offset from the phase start. The conns
// workers take ops in schedule order; an op that falls due while both are
// busy is sent late and timed from its due time, so a stall shows in every
// request it delays. An op taken before it was due is timed from its send:
// the sleep's overshoot is the client's, not the server's.
func openLoop(ops []op, exec executor) []result {
	res := make([]result, len(ops))
	var next atomic.Int64
	var wg sync.WaitGroup
	t0 := time.Now().Add(20 * time.Millisecond)
	for w := 0; w < conns; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				i := int(next.Add(1) - 1)
				if i >= len(ops) {
					return
				}
				r := &res[i]
				r.op = &ops[i]
				due := t0.Add(r.op.due)
				r.queued = time.Now().After(due)
				time.Sleep(time.Until(due))
				r.sent = time.Now()
				r.late = r.sent.Sub(due)
				exec(r.op, r)
				r.done = time.Now()
				r.latency = r.done.Sub(r.sent)
				if r.queued {
					r.latency = r.done.Sub(due)
				}
			}
		}()
	}
	wg.Wait()
	return res
}

// httpExecutor drives rwrd over HTTP with a client that keeps at most conns
// connections to it.
func httpExecutor(c *http.Client, base string) executor {
	return func(o *op, r *result) {
		var (
			resp *http.Response
			err  error
		)
		switch o.kind {
		case opTopK:
			resp, err = c.Get(fmt.Sprintf("%s/v1/query?source=%d&k=%d", base, o.source, o.k))
		case opPair:
			resp, err = c.Get(fmt.Sprintf("%s/v1/pair?source=%d&target=%d", base, o.source, o.target))
		case opEdit:
			body, _ := json.Marshal(map[string]any{"add": o.add, "remove": o.remove}) // plain slices always encode
			resp, err = c.Post(base+"/v1/edges", "application/json", bytes.NewReader(body))
		}
		if err != nil {
			r.outcome, r.detail = failed, err.Error()
			return
		}
		body, err := io.ReadAll(resp.Body)
		resp.Body.Close()
		switch {
		case err != nil:
			r.outcome, r.detail = failed, err.Error()
			return
		case resp.StatusCode == http.StatusOK:
			r.outcome = okFull
		case resp.StatusCode == http.StatusPartialContent:
			r.outcome = okDegraded
		case resp.StatusCode == http.StatusTooManyRequests:
			r.outcome, r.detail = refused, string(body)
			return
		default:
			r.outcome, r.detail = failed, fmt.Sprintf("status %d: %s", resp.StatusCode, body)
			return
		}
		if err := decodeAnswer(o, body, r); err != nil {
			r.outcome, r.detail = failed, err.Error()
		}
	}
}

// decodeAnswer turns a /v1/query or /v1/pair body into checkable answers.
func decodeAnswer(o *op, body []byte, r *result) error {
	switch o.kind {
	case opTopK:
		var v struct {
			Results []struct {
				Node  int32   `json:"node"`
				Score float64 `json:"score"`
			} `json:"results"`
			Millis   float64 `json:"query_ms"`
			Degraded bool    `json:"degraded"`
			Bound    float64 `json:"bound"`
		}
		if err := json.Unmarshal(body, &v); err != nil {
			return fmt.Errorf("decode top-k: %w", err)
		}
		if len(v.Results) == 0 || len(v.Results) > o.k {
			return fmt.Errorf("top-k source %d: %d results for k=%d", o.source, len(v.Results), o.k)
		}
		r.serverMS = v.Millis
		for _, x := range v.Results {
			r.answers = append(r.answers, answer{kind: opTopK, source: o.source, node: x.Node,
				score: x.Score, degraded: v.Degraded, bound: v.Bound})
		}
	case opPair:
		var v struct {
			Estimate float64 `json:"estimate"`
		}
		if err := json.Unmarshal(body, &v); err != nil {
			return fmt.Errorf("decode pair: %w", err)
		}
		r.answers = []answer{{kind: opPair, source: o.source, node: o.target, score: v.Estimate}}
	}
	return nil
}

// tally counts requests attempted and how many were refused or failed.
type tally struct {
	attempted, refused, failed int
	firstFailure               string
}

func (t *tally) add(rs []result) {
	for _, r := range rs {
		t.attempted++
		switch r.outcome {
		case refused:
			t.refused++
		case failed:
			t.failed++
		}
		if r.outcome >= refused && t.firstFailure == "" {
			t.firstFailure = fmt.Sprintf("%s source %d: %s", r.op.kind, r.op.source, r.detail)
		}
	}
}

// cpuTimes returns the rwrd CPU times in ms of the answered results of kind.
func cpuTimes(rs []result, kind opKind) []float64 {
	var out []float64
	for _, r := range rs {
		if r.op.kind == kind && r.outcome <= okDegraded {
			out = append(out, float64(r.cpu)/float64(time.Millisecond))
		}
	}
	return out
}

// latencies returns the latencies in ms of the answered results of kind.
func latencies(rs []result, kind opKind) []float64 {
	var out []float64
	for _, r := range rs {
		if r.op.kind == kind && r.outcome <= okDegraded {
			out = append(out, float64(r.latency)/float64(time.Millisecond))
		}
	}
	return out
}
