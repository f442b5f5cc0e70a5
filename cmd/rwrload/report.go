package main

import (
	"fmt"
	"strings"
	"sync/atomic"
	"time"

	"resacc/internal/obs"
)

// report accumulates per-request outcomes across all load workers. The
// latency histogram reuses the same exponential-bucket sketch the server
// exports on /metrics, so client- and server-side quantiles are directly
// comparable.
type report struct {
	requests atomic.Uint64 // every logical request, any outcome
	ok       atomic.Uint64 // HTTP 200
	degraded atomic.Uint64 // HTTP 206 (deadline-truncated, partial answer)
	shed     atomic.Uint64 // HTTP 429 (admission control)
	errs     atomic.Uint64 // transport errors and other statuses
	retries  atomic.Uint64 // extra attempts spent on 429/503 backoff
	// abandoned counts requests the end of the run cut short, in flight or
	// in a retry backoff: they have no outcome, so they are neither ok,
	// shed nor errors (and not an SLO miss).
	abandoned atomic.Uint64

	writes   atomic.Uint64 // POST /v1/edges requests with an outcome
	writeOK  atomic.Uint64 // accepted edit batches (HTTP 200)
	edits    atomic.Uint64 // edge edits accepted (writeOK × batch size)
	writeLat *obs.Histogram

	// Open-loop extras: dropped counts arrivals lost to the client's
	// inflight cap (never sent); sloOK counts answered queries (200 or 206)
	// that landed within slo. Attainment is judged against every query
	// arrival — a shed, error, or drop is an SLO miss, not an exclusion.
	dropped atomic.Uint64
	sloOK   atomic.Uint64
	slo     time.Duration

	latency *obs.Histogram // successful query requests only, seconds
	elapsed time.Duration  // wall time of the run, set once at the end
}

func newReport() *report {
	return &report{
		latency:  obs.NewHistogram(obs.ExpBuckets(1e-4, 2, 20)),
		writeLat: obs.NewHistogram(obs.ExpBuckets(1e-4, 2, 20)),
	}
}

// record classifies one request. status < 0 means a transport error.
func (r *report) record(status int, d time.Duration) {
	r.requests.Add(1)
	switch status {
	case 200, 206:
		if status == 200 {
			r.ok.Add(1)
		} else {
			r.degraded.Add(1)
		}
		r.latency.Observe(d.Seconds())
		if r.slo > 0 && d <= r.slo {
			r.sloOK.Add(1)
		}
	case 429:
		r.shed.Add(1)
	default:
		r.errs.Add(1)
	}
}

// recordAbandoned counts one request the end of the run cut short.
func (r *report) recordAbandoned() {
	r.requests.Add(1)
	r.abandoned.Add(1)
}

// recordWrite classifies one /v1/edges request carrying batch edits.
// Writes share the request/shed/error totals with queries but keep their
// own success count and latency sketch, so the summary can report edge
// throughput against query throughput.
func (r *report) recordWrite(status int, d time.Duration, batch int) {
	r.requests.Add(1)
	r.writes.Add(1)
	switch {
	case status == 200:
		r.writeOK.Add(1)
		r.edits.Add(uint64(batch))
		r.writeLat.Observe(d.Seconds())
	case status == 429:
		r.shed.Add(1)
	default:
		r.errs.Add(1)
	}
}

// String renders the run summary. Quantiles are upper bucket bounds, the
// same estimate Prometheus' histogram_quantile would give.
func (r *report) String() string {
	var b strings.Builder
	total := r.requests.Load()
	secs := r.elapsed.Seconds()
	if secs <= 0 {
		secs = 1e-9
	}
	fmt.Fprintf(&b, "requests   %d (%.1f req/s over %s)\n",
		total, float64(total)/secs, r.elapsed.Round(time.Millisecond))
	abandoned := r.abandoned.Load()
	if w := r.writes.Load(); w > 0 {
		fmt.Fprintf(&b, "queries    %.1f q/s\n", float64(total-w-abandoned)/secs)
		fmt.Fprintf(&b, "writes     %d (ok %d, %.1f edges/s)\n",
			w, r.writeOK.Load(), float64(r.edits.Load())/secs)
		if r.writeOK.Load() > 0 {
			fmt.Fprintf(&b, "write lat  p50 %s  p99 %s\n",
				fmtSecs(r.writeLat.Quantile(0.50)),
				fmtSecs(r.writeLat.Quantile(0.99)))
		}
	}
	fmt.Fprintf(&b, "ok         %d\n", r.ok.Load())
	if deg := r.degraded.Load(); deg > 0 {
		fmt.Fprintf(&b, "degraded   %d (HTTP 206)\n", deg)
	}
	shed := r.shed.Load()
	rate := 0.0
	if total > 0 {
		rate = 100 * float64(shed) / float64(total)
	}
	fmt.Fprintf(&b, "shed (429) %d (%.1f%%)\n", shed, rate)
	fmt.Fprintf(&b, "errors     %d\n", r.errs.Load())
	if abandoned > 0 {
		fmt.Fprintf(&b, "abandoned  %d (cut short by the end of the run)\n", abandoned)
	}
	if drop := r.dropped.Load(); drop > 0 {
		fmt.Fprintf(&b, "dropped    %d (client inflight cap; raise -max-inflight)\n", drop)
	}
	if r.slo > 0 {
		// Every query arrival counts: shed, errored, and dropped arrivals
		// all missed the SLO; only arrivals the end of the run cut short
		// are left out. Goodput is SLO-meeting answers per second.
		offered := total - r.writes.Load() - abandoned + r.dropped.Load()
		att := 0.0
		if offered > 0 {
			att = 100 * float64(r.sloOK.Load()) / float64(offered)
		}
		fmt.Fprintf(&b, "slo %-6s %.1f%% within SLO (goodput %.1f/s)\n",
			r.slo, att, float64(r.sloOK.Load())/secs)
	}
	if ret := r.retries.Load(); ret > 0 {
		fmt.Fprintf(&b, "retries    %d\n", ret)
	}
	if r.ok.Load()+r.degraded.Load() > 0 {
		fmt.Fprintf(&b, "latency    p50 %s  p90 %s  p99 %s",
			fmtSecs(r.latency.Quantile(0.50)),
			fmtSecs(r.latency.Quantile(0.90)),
			fmtSecs(r.latency.Quantile(0.99)))
	}
	return b.String()
}

func fmtSecs(s float64) string {
	return time.Duration(s * float64(time.Second)).Round(10 * time.Microsecond).String()
}
