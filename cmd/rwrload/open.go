package main

import (
	"context"
	"fmt"
	"math/rand"
	"net/http"
	"sync"
	"time"
)

// Open-loop load generation. Where the closed loop (loop.go) waits for
// each answer before sending the next request — so offered load silently
// tracks server capacity — the open loop fires requests on a Poisson
// arrival process at a configured rate regardless of how the server is
// doing. That is what real traffic does during an incident, and it is the
// only arrival model under which queueing delay, shedding, and brownout
// behaviour are visible: a closed loop can never overload the server by
// more than its worker count.
//
// Arrivals that cannot start because maxInflight requests are already
// outstanding are counted as client drops rather than queued, keeping the
// generator itself open-loop (an unbounded dispatch queue would just move
// the convoy into the client).

// openConfig extends loadConfig with the open-loop arrival parameters.
type openConfig struct {
	loadConfig
	rate        float64       // mean arrivals per second (Poisson)
	burst       float64       // rate multiplier inside burst windows (<= 1 = no bursts)
	burstEvery  time.Duration // burst window period
	burstLen    time.Duration // burst window length at the start of each period
	slo         time.Duration // per-query latency SLO for attainment reporting (0 = off)
	maxInflight int           // outstanding-request cap; arrivals past it are drops
}

// runOpenLoad drives a Poisson arrival process against the server for
// cfg.duration and returns the aggregate report. Requests are sampled on
// the single arrival goroutine (samplers are not concurrent-safe) and
// dispatched to short-lived goroutines bounded by maxInflight. Open-loop
// requests are never retried: a retry is the client volunteering to close
// the loop again.
func runOpenLoad(ctx context.Context, cfg openConfig) (*report, error) {
	if cfg.rate <= 0 {
		return nil, fmt.Errorf("open-loop rate must be positive")
	}
	if cfg.n <= 0 {
		return nil, fmt.Errorf("node count must be positive")
	}
	if cfg.maxInflight <= 0 {
		cfg.maxInflight = 256
	}
	ctx, cancel := context.WithTimeout(ctx, cfg.duration)
	defer cancel()

	rep := newReport()
	rep.slo = cfg.slo
	start := time.Now()
	arr := rand.New(rand.NewSource(streamSeed(cfg.seed, 0, streamArrival)))
	src := newSampler(cfg.n, cfg.skew, cfg.seed, 0)
	edits := &editState{n: cfg.n, batch: cfg.editBatch,
		rng: rand.New(rand.NewSource(streamSeed(cfg.seed, 0, streamEdits)))}

	sem := make(chan struct{}, cfg.maxInflight)
	var wg sync.WaitGroup
	for {
		wait := time.Duration(arr.ExpFloat64() / cfg.rateAt(time.Since(start)) * float64(time.Second))
		select {
		case <-time.After(wait):
		case <-ctx.Done():
			wg.Wait()
			rep.elapsed = time.Since(start)
			return rep, nil
		}

		write := cfg.writeMix > 0 && arr.Float64() < cfg.writeMix
		var method, url string
		var body []byte
		var err error
		if write {
			method, url = http.MethodPost, cfg.base+"/v1/edges"
			body, err = edits.nextBody()
		} else {
			method, url, body, err = cfg.buildReq(src)
		}
		if err != nil {
			return nil, err
		}

		select {
		case sem <- struct{}{}:
		default:
			// The inflight cap is full: in an open loop this arrival is lost,
			// not deferred — queueing it would re-close the loop client-side.
			rep.dropped.Add(1)
			continue
		}
		wg.Add(1)
		go func() {
			defer wg.Done()
			defer func() { <-sem }()
			t0 := time.Now()
			status, _, err := cfg.send(ctx, method, url, body)
			if err != nil {
				if ctx.Err() != nil {
					rep.recordAbandoned()
					return
				}
				status = -1
			}
			if write {
				rep.recordWrite(status, time.Since(t0), cfg.editBatch)
			} else {
				rep.record(status, time.Since(t0))
			}
		}()
	}
}

// rateAt returns the arrival rate in effect at offset t into the run: the
// base rate, multiplied by burst inside the first burstLen of every
// burstEvery window. Deterministic in t so reports can state exactly what
// was offered.
func (cfg *openConfig) rateAt(t time.Duration) float64 {
	if cfg.burst > 1 && cfg.burstEvery > 0 && cfg.burstLen > 0 && t%cfg.burstEvery < cfg.burstLen {
		return cfg.rate * cfg.burst
	}
	return cfg.rate
}
