package main

import (
	"bufio"
	"fmt"
	"math"
	"math/rand/v2"
	"os"
	"sort"
	"time"
)

// Every input of a run derives from the workload seed through one of these
// stream tags, so changing how one stream is drawn never shifts another.
const (
	streamGraph uint64 = iota + 1
	streamPerm
	streamZipfMap
	streamZipfDraw
	streamPairTarget
	streamArrivals
	streamEdits
	streamCheck
)

func newRand(seed, stream uint64) *rand.Rand {
	return rand.New(rand.NewPCG(seed, stream*0x9e3779b97f4a7c15))
}

// rmat draws an RMAT(scale, edgeFactor) digraph with the quadrant
// probabilities of the repository's twitter-s dataset (a=0.57, b=c=0.19),
// then drops self-loops and parallel edges as the library's graph builder
// does. Edges come back sorted by (u, v); n is the node count the edge list
// implies (largest id + 1), which is what rwrd infers when it loads the file.
func rmat(scale, edgeFactor int, seed uint64) (edges [][2]int32, n int) {
	r := newRand(seed, streamGraph)
	const a, b, c = 0.57, 0.19, 0.19
	m := (1 << scale) * edgeFactor
	seen := make(map[uint64]struct{}, m)
	edges = make([][2]int32, 0, m)
	for i := 0; i < m; i++ {
		var u, v int32
		for bit := scale - 1; bit >= 0; bit-- {
			switch p := r.Float64(); {
			case p < a:
			case p < a+b:
				v |= 1 << bit
			case p < a+b+c:
				u |= 1 << bit
			default:
				u |= 1 << bit
				v |= 1 << bit
			}
		}
		if u == v {
			continue
		}
		if _, dup := seen[edgeKey(u, v)]; dup {
			continue
		}
		seen[edgeKey(u, v)] = struct{}{}
		edges = append(edges, [2]int32{u, v})
	}
	sort.Slice(edges, func(i, j int) bool {
		if edges[i][0] != edges[j][0] {
			return edges[i][0] < edges[j][0]
		}
		return edges[i][1] < edges[j][1]
	})
	for _, e := range edges {
		n = max(n, int(e[0])+1, int(e[1])+1)
	}
	return edges, n
}

func edgeKey(u, v int32) uint64 { return uint64(uint32(u))<<32 | uint64(uint32(v)) }

// writeEdgeList writes edges in the "u v" format rwrd -graph loads.
func writeEdgeList(path string, edges [][2]int32) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	w := bufio.NewWriter(f)
	for _, e := range edges {
		fmt.Fprintf(w, "%d %d\n", e[0], e[1])
	}
	if err := w.Flush(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// opKind is what one request does.
type opKind int

const (
	opTopK opKind = iota
	opPair
	opEdit
)

func (k opKind) String() string {
	return [...]string{"topk", "pair", "edit"}[k]
}

// op is one request of a run. due is its offset from the start of an
// open-loop phase (unused in closed loops).
type op struct {
	kind   opKind
	source int32
	target int32 // opPair
	k      int   // opTopK
	add    [][2]int32
	remove [][2]int32
	due    time.Duration
}

// zipf draws node ids whose popularity follows a Zipf law over ranks: each
// draw picks one of zipfHeads seeded permutations as its rank-to-node map,
// so the hot head is a different node set for every seed and spans several
// independent heads, whose costs average out; rank r is drawn with weight
// r^-s.
type zipf struct {
	cdf  []float64
	node [][]int32 // rank-to-node maps
	r    *rand.Rand
}

func newZipf(n int, s float64, seed uint64) *zipf {
	z := &zipf{cdf: make([]float64, n), node: make([][]int32, zipfHeads), r: newRand(seed, streamZipfDraw)}
	total := 0.0
	for i := range z.cdf {
		total += math.Pow(float64(i+1), -s)
		z.cdf[i] = total
	}
	perms := newRand(seed, streamZipfMap)
	for h := range z.node {
		z.node[h] = make([]int32, n)
		for i, p := range perms.Perm(n) {
			z.node[h][i] = int32(p)
		}
	}
	return z
}

func (z *zipf) next() int32 {
	node := z.node[z.r.IntN(len(z.node))]
	u := z.r.Float64() * z.cdf[len(z.cdf)-1]
	return node[min(sort.SearchFloat64s(z.cdf, u), len(z.cdf)-1)]
}

// editStream produces edit batches that commute: every edge it touches is
// touched once, adds are absent edges and removes are present base edges.
// Two connections may therefore apply batches in any order and the server
// still ends on the graph the benchmark replays.
type editStream struct {
	n       int
	base    [][2]int32
	present map[uint64]struct{}
	touched map[uint64]struct{}
	r       *rand.Rand
}

func newEditStream(n int, base [][2]int32, seed uint64) *editStream {
	present := make(map[uint64]struct{}, len(base))
	for _, e := range base {
		present[edgeKey(e[0], e[1])] = struct{}{}
	}
	return &editStream{n: n, base: base, present: present,
		touched: make(map[uint64]struct{}), r: newRand(seed, streamEdits)}
}

func (s *editStream) batch(adds, removes int) (add, remove [][2]int32) {
	for len(add) < adds {
		u, v := int32(s.r.IntN(s.n)), int32(s.r.IntN(s.n))
		k := edgeKey(u, v)
		if u == v {
			continue
		}
		if _, ok := s.present[k]; ok {
			continue
		}
		if _, ok := s.touched[k]; ok {
			continue
		}
		s.touched[k] = struct{}{}
		add = append(add, [2]int32{u, v})
	}
	for len(remove) < removes {
		e := s.base[s.r.IntN(len(s.base))]
		k := edgeKey(e[0], e[1])
		if _, ok := s.touched[k]; ok {
			continue
		}
		s.touched[k] = struct{}{}
		remove = append(remove, e)
	}
	return add, remove
}

// applyEdits returns base with every batch of ops applied, sorted like
// rmat's output.
func applyEdits(base [][2]int32, ops []op) [][2]int32 {
	gone := make(map[uint64]struct{})
	var added [][2]int32
	for _, o := range ops {
		if o.kind != opEdit {
			continue
		}
		for _, e := range o.remove {
			gone[edgeKey(e[0], e[1])] = struct{}{}
		}
		added = append(added, o.add...)
	}
	out := make([][2]int32, 0, len(base)+len(added))
	for _, e := range base {
		if _, ok := gone[edgeKey(e[0], e[1])]; !ok {
			out = append(out, e)
		}
	}
	out = append(out, added...)
	sort.Slice(out, func(i, j int) bool {
		if out[i][0] != out[j][0] {
			return out[i][0] < out[j][0]
		}
		return out[i][1] < out[j][1]
	})
	return out
}

// poissonDue returns n arrival offsets of a Poisson process at rate per
// second, drawn from r.
func poissonDue(n int, rate float64, r *rand.Rand) []time.Duration {
	due := make([]time.Duration, n)
	t := 0.0
	for i := range due {
		t += r.ExpFloat64() / rate
		due[i] = time.Duration(t * float64(time.Second))
	}
	return due
}
