package main

import (
	"testing"
	"time"
)

func TestSelfTimeSubtractsTheUnionOfChildren(t *testing.T) {
	t0 := time.Unix(0, 0)
	at := func(ms int) time.Time { return t0.Add(time.Duration(ms) * time.Millisecond) }
	child := func(a, b int) *span { return &span{start: at(a), end: at(b)} }
	s := &span{start: at(0), end: at(10), children: []*span{
		child(7, 8), child(1, 3), child(2, 5), child(2, 4), // overlapping and nested, unsorted
		child(9, 12), // runs past its parent's end
	}}
	if got, want := s.self(), 4*time.Millisecond; got != want {
		t.Fatalf("self = %v, want %v", got, want)
	}
	if got := (&span{start: at(0), end: at(3)}).self(); got != 3*time.Millisecond {
		t.Fatalf("self without children = %v, want the span's duration", got)
	}
}
