package main

import (
	"bufio"
	"fmt"
	"io"
	"strconv"
	"strings"
)

// scrape is one /metrics exposition: sample value by series, where a
// series is the metric name plus its label set exactly as exposed, e.g.
// `rwr_engine_latency_seconds_count{path="cache"}`.
type scrape map[string]float64

// parseMetrics reads Prometheus text exposition. Comment lines are
// skipped; a sample line is `series value`, optionally followed by a
// timestamp.
func parseMetrics(r io.Reader) (scrape, error) {
	out := scrape{}
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 64<<10), 1<<20)
	for line := 1; sc.Scan(); line++ {
		text := strings.TrimSpace(sc.Text())
		if text == "" || text[0] == '#' {
			continue
		}
		// Label values may hold spaces, so split after the closing brace.
		cut := strings.LastIndexByte(text, '}') + 1
		if cut == 0 {
			cut = strings.IndexByte(text, ' ')
		}
		if cut <= 0 || cut >= len(text) {
			return nil, fmt.Errorf("metrics line %d: no value in %q", line, text)
		}
		fields := strings.Fields(text[cut:])
		if len(fields) == 0 {
			return nil, fmt.Errorf("metrics line %d: no value in %q", line, text)
		}
		v, err := strconv.ParseFloat(fields[0], 64)
		if err != nil {
			return nil, fmt.Errorf("metrics line %d: %w", line, err)
		}
		out[text[:cut]] = v
	}
	return out, sc.Err()
}

// delta returns after minus before for every series in after; a series
// missing from before counts from zero (it appeared inside the window).
func delta(before, after scrape) scrape {
	out := make(scrape, len(after))
	for k, v := range after {
		out[k] = v - before[k]
	}
	return out
}

// sum adds every series of the named metric whatever its labels, so a
// counter split by label reads as one total.
func (s scrape) sum(name string) float64 {
	t := 0.0
	for k, v := range s {
		if k == name || strings.HasPrefix(k, name+"{") {
			t += v
		}
	}
	return t
}
