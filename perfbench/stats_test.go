package main

import "testing"

func TestPercentileNeedsTenSamplesBeyond(t *testing.T) {
	xs := make([]float64, 1000)
	for i := range xs {
		xs[i] = float64(1000 - i) // unsorted input
	}
	v, err := percentile(xs, 0.99)
	if err != nil {
		t.Fatalf("p99 of 1000 samples: %v", err)
	}
	if v != 990 {
		t.Fatalf("p99 of 1..1000 = %v, want 990", v)
	}
	if _, err := percentile(xs[:999], 0.99); err == nil {
		t.Fatal("p99 of 999 samples has 9 beyond it and must be refused")
	}
	if _, err := percentile(xs[:100], 0.90); err != nil {
		t.Fatalf("p90 of 100 samples has 10 beyond it: %v", err)
	}
	if _, err := percentile(xs[:99], 0.90); err == nil {
		t.Fatal("p90 of 99 samples must be refused")
	}
	if v, err := percentile([]float64{3, 1, 2, 5, 4, 9, 8, 7, 6, 10, 11, 12, 13, 14, 15, 16, 17, 18, 19, 20, 21}, 0.5); err != nil || v != 11 {
		t.Fatalf("p50 of 1..21 = %v, %v; want 11", v, err)
	}
}
