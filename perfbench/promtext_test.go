package main

import (
	"strings"
	"testing"
)

const exposition = `# HELP rwr_engine_cache_hits_total Engine queries answered from the result cache.
# TYPE rwr_engine_cache_hits_total counter
rwr_engine_cache_hits_total 10
rwr_engine_latency_seconds_bucket{path="cache",le="0.005"} 7
rwr_engine_latency_seconds_sum{path="cache"} 0.5
rwr_engine_latency_seconds_count{path="compute"} 3
rwr_http_requests_total{path="/v1/query",code="200"} 4
rwr_http_requests_total{path="/v1/query",code="429"} 1
go_gc_pause_p99_seconds 1.5e-05
`

func TestParseMetricsAndDelta(t *testing.T) {
	before, err := parseMetrics(strings.NewReader(exposition))
	if err != nil {
		t.Fatal(err)
	}
	if got := before[`rwr_engine_latency_seconds_sum{path="cache"}`]; got != 0.5 {
		t.Fatalf("labelled sample = %v, want 0.5", got)
	}
	if got := before["go_gc_pause_p99_seconds"]; got != 1.5e-05 {
		t.Fatalf("exponent sample = %v", got)
	}
	after, err := parseMetrics(strings.NewReader(strings.NewReplacer(
		"rwr_engine_cache_hits_total 10", "rwr_engine_cache_hits_total 25",
		`code="200"} 4`, `code="200"} 9`,
	).Replace(exposition) + "rwr_graph_swaps_total 2\n"))
	if err != nil {
		t.Fatal(err)
	}
	d := delta(before, after)
	if got := d.sum("rwr_engine_cache_hits_total"); got != 15 {
		t.Errorf("hits delta = %v, want 15", got)
	}
	if got := d.sum("rwr_http_requests_total"); got != 5 {
		t.Errorf("summed labelled delta = %v, want 5", got)
	}
	if got := d.sum("rwr_graph_swaps_total"); got != 2 {
		t.Errorf("a series new in the window counts from zero: got %v, want 2", got)
	}
	if got := d.sum("rwr_engine_latency_seconds"); got != 0 {
		t.Errorf("sum must not match suffixed series: got %v", got)
	}
}

func TestParseMetricsRejectsGarbage(t *testing.T) {
	for _, bad := range []string{"rwr_x\n", "rwr_x{a=\"b\"}\n", "rwr_x one\n"} {
		if _, err := parseMetrics(strings.NewReader(bad)); err == nil {
			t.Errorf("%q parsed without error", bad)
		}
	}
}
