package main

import (
	"reflect"
	"testing"
)

func TestPlanIsAFunctionOfTheSeed(t *testing.T) {
	for _, w := range workloads {
		t.Run(w.name, func(t *testing.T) {
			edges, n := rmat(9, 8, 7)
			a := mustPlan(t, w, 7, n, edges)
			b := mustPlan(t, w, 7, n, edges)
			if !reflect.DeepEqual(a, b) {
				t.Fatal("the same seed built two different plans")
			}
			other, m := rmat(9, 8, 8)
			c := mustPlan(t, w, 8, m, other)
			for _, part := range []struct {
				name string
				x, y []op
			}{{"warm-up", a.warm, c.warm}, {"timed", timed(a), timed(c)}} {
				if reflect.DeepEqual(sources(part.x), sources(part.y)) {
					t.Errorf("%s read sequence did not change with the seed", part.name)
				}
				if reflect.DeepEqual(editsOf(part.x), editsOf(part.y)) && len(editsOf(part.x)) > 0 {
					t.Errorf("%s edit stream did not change with the seed", part.name)
				}
				if w.rate > 0 && reflect.DeepEqual(dues(part.x), dues(part.y)) {
					t.Errorf("%s arrival schedule did not change with the seed", part.name)
				}
			}
			if len(editsOf(timed(a))) == 0 {
				t.Error("the timed window holds no edits")
			}
		})
	}
}

func TestGraphIsAFunctionOfTheSeed(t *testing.T) {
	a, na := rmat(9, 8, 1)
	b, nb := rmat(9, 8, 1)
	c, _ := rmat(9, 8, 2)
	if na != nb || !reflect.DeepEqual(a, b) {
		t.Fatal("the same seed generated two different graphs")
	}
	if reflect.DeepEqual(a, c) {
		t.Fatal("a different seed generated the same graph")
	}
	seen := map[uint64]bool{}
	for _, e := range a {
		if e[0] == e[1] || seen[edgeKey(e[0], e[1])] {
			t.Fatalf("edge %v is a self-loop or a duplicate", e)
		}
		seen[edgeKey(e[0], e[1])] = true
	}
}

func TestEditBatchesCommute(t *testing.T) {
	edges, n := rmat(9, 8, 3)
	s := newEditStream(n, edges, 3)
	present := map[uint64]bool{}
	for _, e := range edges {
		present[edgeKey(e[0], e[1])] = true
	}
	touched := map[uint64]bool{}
	var ops []op
	for i := 0; i < 50; i++ {
		add, remove := s.batch(editAdds, editRemoves)
		for _, e := range add {
			k := edgeKey(e[0], e[1])
			if present[k] || touched[k] || e[0] == e[1] {
				t.Fatalf("add %v is present, a self-loop or touched twice", e)
			}
			touched[k] = true
		}
		for _, e := range remove {
			k := edgeKey(e[0], e[1])
			if !present[k] || touched[k] {
				t.Fatalf("remove %v is absent or touched twice", e)
			}
			touched[k] = true
		}
		ops = append(ops, op{kind: opEdit, add: add, remove: remove})
	}
	forward := applyEdits(edges, ops)
	for i, j := 0, len(ops)-1; i < j; i, j = i+1, j-1 {
		ops[i], ops[j] = ops[j], ops[i]
	}
	if !reflect.DeepEqual(forward, applyEdits(edges, ops)) {
		t.Fatal("applying the batches in reverse order gave another graph")
	}
	if len(forward) != len(edges) {
		t.Fatalf("a stationary stream changed the edge count from %d to %d", len(edges), len(forward))
	}
}

func mustPlan(t *testing.T, w workload, seed uint64, n int, edges [][2]int32) *plan {
	t.Helper()
	p, err := buildPlan(w, seed, 2, n, edges)
	if err != nil {
		t.Fatal(err)
	}
	return p
}

func TestPlanRefusesMoreDistinctSourcesThanNodes(t *testing.T) {
	edges, n := rmat(9, 8, 7)
	if _, err := buildPlan(workloads[0], 7, 60, n, edges); err == nil {
		t.Fatalf("a %d-node graph cannot supply 3000 distinct sources", n)
	}
}

func timed(p *plan) []op {
	return append(append(append([]op(nil), p.main...), p.probe[0]...), p.probe[1]...)
}

func sources(ops []op) []int32 {
	var out []int32
	for _, o := range ops {
		if o.kind != opEdit {
			out = append(out, o.source)
		}
	}
	return out
}

func editsOf(ops []op) [][][2]int32 {
	var out [][][2]int32
	for _, o := range ops {
		if o.kind == opEdit {
			out = append(out, o.add, o.remove)
		}
	}
	return out
}

func dues(ops []op) []int64 {
	var out []int64
	for _, o := range ops {
		out = append(out, int64(o.due))
	}
	return out
}
