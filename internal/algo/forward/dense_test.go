package forward

import (
	"math"
	"testing"
	"time"

	"resacc/internal/graph/gen"
	"resacc/internal/ws"
)

// pooledState assembles a State in the pooled configuration (Track + marks
// scratch), the only shape drainDense serves.
func pooledState(n int, src int32, dirty, inQueue *ws.Marks) *State {
	dirty.Grow(n)
	dirty.Clear()
	inQueue.Grow(n)
	st := NewState(n, src)
	st.Track = dirty
	st.UseScratch(inQueue, nil)
	dirty.Mark(src)
	return st
}

// TestDenseDrainEquivalence: with a small DenseMass the drain escalates to
// whole-range sweeps; the result must stay within the forward-push
// invariant's residual bound of the plain queue drain, and both must be
// quiescent and mass-conserving.
func TestDenseDrainEquivalence(t *testing.T) {
	g := gen.RMAT(10, 6, 5)
	const alpha, rmax = 0.2, 1e-7
	n := g.N()

	var d1, q1, d2, q2 ws.Marks
	plain := pooledState(n, 0, &d1, &q1)
	RunFromCtx(g, alpha, rmax, plain, []int32{0}, false, nil, 0)

	dense := pooledState(n, 0, &d2, &q2)
	RunFromCtx(g, alpha, rmax, dense, []int32{0}, false, nil, 256)
	if dense.Sweeps == 0 {
		t.Fatal("DenseMass=256 never escalated to a sweep")
	}

	var prsd, drsd float64
	for v := 0; v < n; v++ {
		prsd += plain.Residue[v]
		drsd += dense.Residue[v]
	}
	var psum, dsum float64
	for v := 0; v < n; v++ {
		psum += plain.Reserve[v]
		dsum += dense.Reserve[v]
	}
	if math.Abs(psum+prsd-1) > 1e-9 || math.Abs(dsum+drsd-1) > 1e-9 {
		t.Fatalf("mass lost: plain Σ=%v dense Σ=%v", psum+prsd, dsum+drsd)
	}
	bound := prsd + drsd + 1e-12
	for v := 0; v < n; v++ {
		if diff := math.Abs(plain.Reserve[v] - dense.Reserve[v]); diff > bound {
			t.Fatalf("node %d: |plain−dense| = %v > residual bound %v", v, diff, bound)
		}
		// Both quiescent.
		deg := g.OutDegree(int32(v))
		lim := rmax * float64(deg)
		if deg == 0 {
			lim = rmax
		}
		if plain.Residue[v] >= lim || dense.Residue[v] >= lim {
			t.Fatalf("node %d not quiescent: plain %v dense %v (lim %v)", v, plain.Residue[v], dense.Residue[v], lim)
		}
	}
}

// TestDenseDrainBitIdenticalBelowThreshold: a DenseMass the query never
// reaches must leave the push sequence — and every output bit — identical to
// the plain pooled drain.
func TestDenseDrainBitIdenticalBelowThreshold(t *testing.T) {
	g := gen.ErdosRenyi(400, 3200, 7)
	const alpha, rmax = 0.2, 1e-6
	n := g.N()

	var d1, q1, d2, q2 ws.Marks
	plain := pooledState(n, 3, &d1, &q1)
	RunFromCtx(g, alpha, rmax, plain, []int32{3}, false, nil, 0)

	dense := pooledState(n, 3, &d2, &q2)
	RunFromCtx(g, alpha, rmax, dense, []int32{3}, false, nil, 1<<40)
	if dense.Sweeps != 0 {
		t.Fatal("unreachable DenseMass escalated anyway")
	}
	if dense.Pushes != plain.Pushes {
		t.Fatalf("push count drifted: %d vs %d", dense.Pushes, plain.Pushes)
	}
	for v := 0; v < n; v++ {
		if math.Float64bits(plain.Reserve[v]) != math.Float64bits(dense.Reserve[v]) ||
			math.Float64bits(plain.Residue[v]) != math.Float64bits(dense.Residue[v]) {
			t.Fatalf("node %d: below-threshold dense drain not bit-identical", v)
		}
	}
}

// TestDenseDrainRestricted: the sweep must honor restrict/skip exactly as
// the queue drain does when engaged from a restricted search (the h-HopFWD
// shape).
func TestDenseDrainRestricted(t *testing.T) {
	g := gen.RMAT(9, 6, 13)
	const alpha, rmax = 0.2, 1e-7
	n := g.N()

	var restrict ws.Marks
	restrict.Grow(n)
	restrict.Clear()
	for v := int32(0); int(v) < n/2; v++ {
		restrict.Mark(v)
	}
	const skip = int32(0)

	var d1, q1, d2, q2 ws.Marks
	plain := pooledState(n, 1, &d1, &q1)
	plain.RestrictTo(&restrict, skip)
	RunFromCtx(g, alpha, rmax, plain, []int32{1}, false, nil, 0)

	dense := pooledState(n, 1, &d2, &q2)
	dense.RestrictTo(&restrict, skip)
	RunFromCtx(g, alpha, rmax, dense, []int32{1}, false, nil, 128)
	if dense.Sweeps == 0 {
		t.Skip("graph too sparse to escalate at DenseMass=128")
	}

	var prsd, drsd float64
	for v := 0; v < n; v++ {
		prsd += plain.Residue[v]
		drsd += dense.Residue[v]
	}
	bound := prsd + drsd + 1e-12
	for v := int32(0); int(v) < n; v++ {
		if !restrict.Has(v) || v == skip {
			if dense.Reserve[v] != 0 {
				t.Fatalf("ineligible node %d gained reserve %v under dense drain", v, dense.Reserve[v])
			}
			continue
		}
		if diff := math.Abs(plain.Reserve[v] - dense.Reserve[v]); diff > bound {
			t.Fatalf("node %d: |plain−dense| = %v > %v", v, diff, bound)
		}
	}
}

// TestForceSeeds: force-seeded drains (OMFWD's Algorithm 4) push every seed
// with residue regardless of threshold, on the queue drain and on the dense
// drain alike. The sub-threshold seeds sit at the head of the queue and one
// unit-mass seed at its tail, whose cascade carries the dense drain over its
// threshold once the forced seeds have been pushed.
func TestForceSeeds(t *testing.T) {
	g := gen.BarabasiAlbert(1000, 6, 5)
	const alpha, rmax = 0.2, 1e-6
	n := g.N()
	var seeds []int32
	for v := int32(0); int(v) < n; v += 50 {
		seeds = append(seeds, v)
	}
	const big = int32(1)
	seeds = append(seeds, big)
	initPending := 0
	for _, v := range seeds {
		initPending += cost(g, v)
	}
	run := func(denseMass int) *State {
		var dirty, inQueue ws.Marks
		st := pooledState(n, big, &dirty, &inQueue)
		for _, v := range seeds[:len(seeds)-1] {
			st.Residue[v] = 1e-9 // far below threshold: only force pushes these
			dirty.Mark(v)
		}
		RunFromCtx(g, alpha, rmax, st, seeds, true, nil, denseMass)
		return st
	}
	queue := run(0)
	dense := run(initPending + 1)
	if dense.Sweeps == 0 {
		t.Fatalf("DenseMass=%d never escalated to a sweep", initPending+1)
	}
	for name, st := range map[string]*State{"queue": queue, "dense": dense} {
		for _, v := range seeds {
			if st.Reserve[v] == 0 {
				t.Fatalf("%s drain: force seed %d never pushed", name, v)
			}
		}
	}
	tol := queue.ResidueSum() + dense.ResidueSum() + 1e-12
	for v := 0; v < n; v++ {
		if d := math.Abs(queue.Reserve[v] - dense.Reserve[v]); d > tol {
			t.Fatalf("reserve[%d]: |queue−dense|=%g > %g", v, d, tol)
		}
	}
}

// TestAbortPreservesInvariant: a done channel that fires before the first
// push, or partway through the drain, must leave reserve+residue mass
// conserved on the generic queue drain, the pooled queue drain and the
// dense drain — every push preserves the invariant, and an abort mid-sweep
// leaves a half-swept state that still does.
func TestAbortPreservesInvariant(t *testing.T) {
	g := gen.RMAT(13, 8, 11)
	const alpha, rmax = 0.2, 1e-10
	n := g.N()
	cases := []struct {
		name      string
		pooled    bool
		denseMass int
	}{
		{"generic", false, 0},
		{"pooled", true, 0},
		{"dense", true, 256},
	}
	for _, tc := range cases {
		run := func(done <-chan struct{}) (*State, bool) {
			var st *State
			if tc.pooled {
				var dirty, inQueue ws.Marks
				st = pooledState(n, 0, &dirty, &inQueue)
			} else {
				st = NewState(n, 0)
			}
			aborted := RunFromCtx(g, alpha, rmax, st, []int32{0}, false, done, tc.denseMass)
			total := 0.0
			for v := 0; v < n; v++ {
				total += st.Reserve[v] + st.Residue[v]
			}
			if math.Abs(total-1) > 1e-9 {
				t.Fatalf("%s: mass not conserved (aborted=%v): Σ(reserve+residue)=%v", tc.name, aborted, total)
			}
			return st, aborted
		}
		full, _ := run(nil)
		if tc.denseMass > 0 && full.Sweeps == 0 {
			t.Fatalf("%s: DenseMass=%d never escalated to a sweep", tc.name, tc.denseMass)
		}

		closed := make(chan struct{})
		close(closed)
		if st, aborted := run(closed); !aborted || st.Pushes != 0 {
			t.Fatalf("%s: pre-closed done: aborted=%v after %d pushes, want an abort before the first push", tc.name, aborted, st.Pushes)
		}

		// Close done from a timer after a short delay until one run is cut
		// short after it started pushing; the mass check above runs on
		// every attempt. Timer jitter on a loaded host can land a
		// cancellation before the first push or after the last, so the
		// delays cycle and only a run of misses fails.
		mid := false
		for attempt := 0; attempt < 64 && !mid; attempt++ {
			done := make(chan struct{})
			delay := time.Duration(25<<(attempt%8)) * time.Microsecond
			timer := time.AfterFunc(delay, func() { close(done) })
			st, aborted := run(done)
			timer.Stop()
			mid = aborted && st.Pushes > 0 && st.Pushes < full.Pushes
		}
		if !mid {
			t.Fatalf("%s: no cancellation landed mid-drain in 64 attempts", tc.name)
		}
	}
}
