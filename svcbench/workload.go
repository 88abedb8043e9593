package main

import (
	"fmt"
	"math"
	"sort"

	"repro/internal/hhc"
	"repro/internal/pathsvc"
)

// workload is one fixed traffic mix. Everything here is a constant of the
// benchmark, picked once from measurements on a 2-vCPU host and never
// derived from the current run, so a parent and a change see the same
// load: the reference rate keeps the process at about a fifth of those
// two CPUs, so a latency figure measures service time rather than
// queueing, and a host that briefly runs at half speed does not saturate.
type workload struct {
	name string
	// why records what the workload is for and which layers it should and
	// should not move — the prediction a later change is held to.
	why string
	m   int

	// Key source. pool == 0 draws a fresh uniform pair per lookup; pool > 0
	// draws from a seeded working set of that many pairs with distinct
	// canonical keys, Zipf-skewed with exponent zipf (0 = uniform).
	pool int
	zipf float64

	// Op mix: routeShare and batchShare of requests, the rest paths.
	routeShare, batchShare float64
	faults                 int // declared faults per route request
	batchPairs             int // pairs per batch request

	warm int // warm-up requests per set-up

	refRate float64 // open loop reference rate, req/s
}

var workloads = []workload{
	{
		name: "hot",
		why: "16-pair pool, paths only: every request is a cache hit, so it times the serve loop " +
			"(read, decode, admission, coalescing, queue, encode, write, client demux) and hardly touches core. " +
			"Predicts: serve-loop changes move it; construction changes leave it unchanged.",
		m: 3, pool: 16,
		warm:    4000,
		refRate: 15000,
	},
	{
		name: "cold",
		why: "m=5, a fresh uniform pair per request: keys never repeat, so every request pays a full construction " +
			"and cache hits and coalescing are bypassed. Predicts: core and worker-pool changes move it; " +
			"serve-loop changes barely do.",
		m:       5,
		warm:    2000,
		refRate: 2500,
	},
	{
		name: "mixed",
		why: "m=4, Zipf keys over a working set 8x the 4096-entry cache, 80% paths, 10% route (2 faults), " +
			"10% batch (8 pairs): hits, misses, LRU inserts and evictions interleave on the same connections and " +
			"batch replies make large frames. Predicts: head-of-line blocking of hits behind misses and cache " +
			"write-path contention show here.",
		m: 4, pool: 8 * 4096, zipf: 1.0,
		routeShare: 0.1, batchShare: 0.1, faults: 2, batchPairs: 8,
		warm:    8000,
		refRate: 6000,
	},
}

func findWorkload(name string) (*workload, error) {
	for i := range workloads {
		if workloads[i].name == name {
			return &workloads[i], nil
		}
	}
	names := make([]string, len(workloads))
	for i, w := range workloads {
		names[i] = w.name
	}
	return nil, fmt.Errorf("unknown workload %q (want one of %v)", name, names)
}

// Phase kinds. Each phase of a run replays its own seeded stream, named
// by phaseID(kind, n) where n numbers the rounds.
const (
	phaseWarm uint64 = iota + 1
	phaseClosed
	phaseOpen
)

func phaseID(kind, n uint64) uint64 { return kind<<16 | n }

// canonKey is a pair's canonical key under the cache's CanonExact mode
// (translation by u.X), recomputed here so the input statistics never
// depend on the cache's own bookkeeping.
type canonKey struct {
	dx     uint64
	uy, vy uint8
}

func keyOf(u, v hhc.Node) canonKey { return canonKey{dx: u.X ^ v.X, uy: u.Y, vy: v.Y} }

// rng is splitmix64: tiny, seedable, and good enough for key selection.
type rng struct{ s uint64 }

func (r *rng) next() uint64 {
	r.s += 0x9e3779b97f4a7c15
	z := r.s
	z = (z ^ z>>30) * 0xbf58476d1ce4e5b9
	z = (z ^ z>>27) * 0x94d049bb133111eb
	return z ^ z>>31
}

// unit returns a uniform float in [0, 1).
func (r *rng) unit() float64 { return float64(r.next()>>11) / (1 << 53) }

func mix(a, b uint64) uint64 {
	r := rng{a ^ (b * 0xd1342543de82ef95)}
	return r.next()
}

// stream is a deterministic request sequence: request i is a pure function
// of (seed, phase, i), so any number of senders can draw from it in any
// order and the sequence itself stays byte-identical for a given seed.
type stream struct {
	w    *workload
	g    *hhc.Graph
	id   uint64 // phaseID
	key  uint64
	pool []pathsvc.NodePair // shared by every phase of one seed
	cdf  []float64          // Zipf CDF over pool ranks; nil = uniform
}

// newPool builds the seed's working set: n pairs with distinct canonical
// keys, in seeded order (rank 0 is the most popular under Zipf).
func newPool(g *hhc.Graph, seed uint64, n int) []pathsvc.NodePair {
	r := rng{mix(seed, 0x706f6f6c)}
	seen := make(map[canonKey]bool, n)
	pool := make([]pathsvc.NodePair, 0, n)
	for len(pool) < n {
		u, v := randNode(g, &r), randNode(g, &r)
		k := keyOf(u, v)
		if u == v || seen[k] {
			continue
		}
		seen[k] = true
		pool = append(pool, pathsvc.NodePair{U: u, V: v})
	}
	return pool
}

// zipfCDF returns the cumulative distribution of rank r ∝ 1/(r+1)^s.
func zipfCDF(n int, s float64) []float64 {
	cdf := make([]float64, n)
	total := 0.0
	for i := range cdf {
		total += 1 / math.Pow(float64(i+1), s)
		cdf[i] = total
	}
	for i := range cdf {
		cdf[i] /= total
	}
	return cdf
}

func newStream(w *workload, g *hhc.Graph, seed, phase uint64, pool []pathsvc.NodePair) *stream {
	s := &stream{w: w, g: g, id: phase, key: mix(seed, phase), pool: pool}
	if w.pool > 0 && w.zipf > 0 {
		s.cdf = zipfCDF(len(pool), w.zipf)
	}
	return s
}

func randNode(g *hhc.Graph, r *rng) hhc.Node {
	t := g.T()
	x := r.next()
	if t < 64 {
		x &= 1<<uint(t) - 1
	}
	return hhc.Node{X: x, Y: uint8(r.next() & uint64(t-1))}
}

func (s *stream) pair(r *rng) pathsvc.NodePair {
	if len(s.pool) == 0 {
		for {
			u, v := randNode(s.g, r), randNode(s.g, r)
			if u != v {
				return pathsvc.NodePair{U: u, V: v}
			}
		}
	}
	if s.cdf == nil {
		return s.pool[r.next()%uint64(len(s.pool))]
	}
	return s.pool[sort.SearchFloat64s(s.cdf, r.unit())]
}

// at fills req with request i of the stream, reusing req's slices. Faults
// never include either endpoint, so every generated request is answerable.
func (s *stream) at(i uint64, req *pathsvc.RequestV2) {
	r := rng{mix(s.key, i)}
	*req = pathsvc.RequestV2{Faults: req.Faults[:0], Pairs: req.Pairs[:0]}
	f := r.unit()
	switch {
	case f < s.w.routeShare:
		req.Op = pathsvc.OpCodeRoute
		p := s.pair(&r)
		req.U, req.V = p.U, p.V
	faults:
		for len(req.Faults) < s.w.faults {
			x := randNode(s.g, &r)
			if x == p.U || x == p.V {
				continue
			}
			for _, y := range req.Faults {
				if x == y {
					continue faults
				}
			}
			req.Faults = append(req.Faults, x)
		}
	case f < s.w.routeShare+s.w.batchShare:
		req.Op = pathsvc.OpCodeBatch
		for len(req.Pairs) < s.w.batchPairs {
			req.Pairs = append(req.Pairs, s.pair(&r))
		}
	default:
		req.Op = pathsvc.OpCodePaths
		p := s.pair(&r)
		req.U, req.V = p.U, p.V
	}
}

// inputStats reports, over the first n requests of the stream, the share
// of pair lookups whose canonical key appeared earlier and the number of
// distinct keys. A batch contributes each of its pairs.
func (s *stream) inputStats(n int) (repeatShare float64, distinct int) {
	seen := make(map[canonKey]bool)
	lookups, repeats := 0, 0
	var req pathsvc.RequestV2
	note := func(u, v hhc.Node) {
		k := keyOf(u, v)
		lookups++
		if seen[k] {
			repeats++
		}
		seen[k] = true
	}
	for i := 0; i < n; i++ {
		s.at(uint64(i), &req)
		if req.Op == pathsvc.OpCodeBatch {
			for _, p := range req.Pairs {
				note(p.U, p.V)
			}
			continue
		}
		note(req.U, req.V)
	}
	return float64(repeats) / float64(lookups), len(seen)
}
