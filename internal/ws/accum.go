package ws

import "sync"

// Accum is a per-worker delta accumulator: a dense value vector plus a
// touched-list so zeroing on release and merging are O(touched), never
// O(n). The parallel remedy phase accumulates walk credits in one per
// worker, borrowed from the pool below.
//
// An Accum is owned by exactly one goroutine between GetAccum and the
// merge that reads it; Marks is not safe for concurrent use.
type Accum struct {
	Val   []float64
	Marks Marks
}

// Add accumulates x into slot v, recording the touch.
func (a *Accum) Add(v int32, x float64) {
	a.Marks.Mark(v)
	a.Val[v] += x
}

var accumPool = sync.Pool{New: func() any { return &Accum{} }}

// accumShrinkFactor/Floor mirror the workspace pool's policy: a pooled
// accumulator serves a request for n slots only while its capacity is at
// most accumShrinkFactor×n (or trivially small), so one query against a
// huge graph does not pin huge vectors for a workload that moved on.
const (
	accumShrinkFactor = 8
	accumShrinkFloor  = 1 << 16
)

// GetAccum borrows an accumulator sized for n slots, all-zero and empty.
func GetAccum(n int) *Accum {
	a := accumPool.Get().(*Accum)
	if len(a.Val) < n || (len(a.Val) > accumShrinkFloor && len(a.Val) > accumShrinkFactor*n) {
		// Too small, or so oversized for the current workload that pinning
		// it would waste memory: start fresh (the old vector is garbage).
		a.Val = make([]float64, n)
		a.Marks = Marks{}
	}
	a.Marks.Grow(n)
	a.Marks.Clear()
	return a
}

// PutAccum zeroes the touched slots and returns the accumulator to the
// pool. Accumulators whose state may be mid-update (a contained worker
// panic) must be dropped on the floor instead.
func PutAccum(a *Accum) {
	for _, t := range a.Marks.Touched() {
		a.Val[t] = 0
	}
	accumPool.Put(a)
}
