package flow

import (
	"fmt"
	"slices"
	"sync"

	"repro/internal/graph"
)

// maxFanOrder bounds the graphs a FanPlan accepts: the exact min-cost
// solver is meant for small graphs.
const maxFanOrder = 1 << 20

// FanPlan solves fans (see VertexDisjointFan) on one fixed graph. It builds
// the graph's node-split network once; every Fan then copies the template's
// capacities and list heads into recycled scratch, raises the source's split
// capacity, appends one super-sink edge per target and runs MinCostFlow, so
// a fan costs one solve and two allocations (the result) rather than a
// network build. Edge IDs and list order are exactly those of a network
// built for the single fan, so the answers are the same.
//
// A FanPlan is safe for concurrent use: each call takes its own scratch.
type FanPlan struct {
	order     int64   // vertices of the graph
	tmpl      Network // split network (unit split capacities) + the super-sink vertex, no sink edges
	splitEdge []int32 // splitEdge[v]: ID of in(v)->out(v)

	mu sync.Mutex
	// free recycles scratch between calls. It is a plain free list rather
	// than a sync.Pool because GC empties a Pool, which would make the
	// allocation count of a fan depend on when the collector last ran.
	free []*fanScratch // guarded by mu
}

// fanScratch is one caller's working state. Between calls every entry of
// ends is -1; the other fields are reset at the start of each call.
type fanScratch struct {
	nw       Network  // working copy of the plan's template plus sink edges
	consumed []bool   // per edge ID: claimed by a walk
	ends     []int32  // per vertex: index in targets, or -1
	walks    []uint64 // the decomposed walks, back to back
	offs     []int    // end offset of each walk in walks
	byTarget []int    // per target: index of the walk ending there, or -1
}

// NewFanPlan builds the split network of g for repeated fans.
func NewFanPlan(g graph.Graph) (*FanPlan, error) {
	n := g.Order()
	if n > maxFanOrder {
		return nil, fmt.Errorf("%w: fan wants order <= 2^20, have %d", graph.ErrTooLarge, n)
	}
	nw, splitEdge, err := splitNetwork(g)
	if err != nil {
		return nil, err
	}
	// One more vertex, the super-sink, with an empty edge list for now.
	nw.first = append(nw.first, -1)
	nw.n++
	return &FanPlan{order: n, tmpl: *nw, splitEdge: splitEdge}, nil
}

// newScratch returns fresh working state. The template's edge arrays are
// copied once here; later calls only restore capacities and heads, and the
// sink edges' room, grown by the first call, is kept for the next.
func (p *FanPlan) newScratch() *fanScratch {
	t := &p.tmpl
	s := &fanScratch{
		nw: Network{
			n:     t.n,
			first: make([]int32, t.n),
			next:  slices.Clone(t.next),
			to:    slices.Clone(t.to),
			cap:   slices.Clone(t.cap),
			cost:  slices.Clone(t.cost),
		},
		ends: make([]int32, p.order),
	}
	for i := range s.ends {
		s.ends[i] = -1
	}
	return s
}

func (p *FanPlan) get() *fanScratch {
	p.mu.Lock()
	if n := len(p.free); n > 0 {
		s := p.free[n-1]
		p.free = p.free[:n-1]
		p.mu.Unlock()
		return s
	}
	p.mu.Unlock()
	return p.newScratch()
}

func (p *FanPlan) put(s *fanScratch) {
	p.mu.Lock()
	p.free = append(p.free, s)
	p.mu.Unlock()
}

// Fan is VertexDisjointFan on the plan's graph.
func (p *FanPlan) Fan(src uint64, targets []uint64) ([][]uint64, error) {
	k := len(targets)
	if k == 0 {
		return nil, nil
	}
	if src >= uint64(p.order) {
		return nil, fmt.Errorf("flow: fan source %d out of range [0,%d)", src, p.order)
	}
	s := p.get()
	defer p.put(s)
	defer s.clearEnds(targets)
	for i, t := range targets {
		switch {
		case t >= uint64(p.order):
			return nil, fmt.Errorf("flow: fan target %d out of range [0,%d)", t, p.order)
		case t == src:
			return nil, fmt.Errorf("flow: fan target equals source %d", src)
		case s.ends[t] >= 0:
			return nil, fmt.Errorf("flow: duplicate fan target %d", t)
		}
		s.ends[t] = int32(i)
	}

	// Restore the template, then open the source and add the super-sink.
	t, nw := &p.tmpl, &s.nw
	edges := len(t.to)
	copy(nw.first, t.first)
	nw.next, nw.to, nw.cost = nw.next[:edges], nw.to[:edges], nw.cost[:edges]
	nw.cap = append(nw.cap[:0], t.cap...)
	nw.cap[p.splitEdge[src]] = inf
	// Super-sink collecting one unit from each target's OUT-side. A full fan
	// saturates every out(t)->super edge, which consumes each target's unit
	// vertex capacity on termination — so no other path can pass through a
	// target, giving the strong fan property (paths meet the target set only
	// at their own endpoints).
	super := int32(t.n - 1)
	for _, tg := range targets {
		nw.AddEdge(int32(2*tg+1), super, 1, 0)
	}
	got, _ := nw.MinCostFlow(int32(2*src+1), super, int32(k))
	if got != int32(k) {
		return nil, fmt.Errorf("flow: fan from %d to %d targets: only %d disjoint paths exist", src, k, got)
	}

	// Every target's out->super edge is saturated in a full fan, so its
	// single vertex unit is consumed by termination: a reached target
	// always ends the walk.
	if len(s.consumed) < len(nw.to) {
		s.consumed = make([]bool, len(nw.to))
	}
	consumed := s.consumed[:len(nw.to)]
	clear(consumed)
	s.walks, s.offs = walkFlow(nw, src, k, s.ends, consumed, s.walks[:0], s.offs[:0])
	if len(s.offs) != k {
		return nil, fmt.Errorf("flow: fan decomposition produced %d of %d paths", len(s.offs), k)
	}

	// Order by target; a later walk to the same target replaces an earlier one.
	if cap(s.byTarget) < k {
		s.byTarget = make([]int, k)
	}
	byTarget := s.byTarget[:k]
	for i := range byTarget {
		byTarget[i] = -1
	}
	for w, end := range s.offs {
		byTarget[s.ends[s.walks[end-1]]] = w
	}
	for i, w := range byTarget {
		if w < 0 {
			return nil, fmt.Errorf("flow: fan missing path to target %d", targets[i])
		}
	}
	// Each walk ends at its own target, so the walks fill the result exactly.
	backing := make([]uint64, len(s.walks))
	out := make([][]uint64, k)
	off := 0
	for i, w := range byTarget {
		start := 0
		if w > 0 {
			start = s.offs[w-1]
		}
		n := copy(backing[off:], s.walks[start:s.offs[w]])
		out[i] = backing[off : off+n : off+n]
		off += n
	}
	return out, nil
}

// clearEnds restores the all -1 invariant of ends for the given targets.
func (s *fanScratch) clearEnds(targets []uint64) {
	for _, t := range targets {
		if t < uint64(len(s.ends)) {
			s.ends[t] = -1
		}
	}
}

// VertexDisjointFan returns len(targets) paths from src to each target,
// pairwise sharing no vertex except src, and such that no path passes
// through another target. The family minimizes total length (min-cost flow).
// Returned paths are ordered to match targets. Targets must be distinct and
// different from src; an error is returned if no full fan exists (by the fan
// lemma one always exists when the graph is len(targets)-connected).
// Callers solving many fans on one graph should keep a FanPlan instead.
func VertexDisjointFan(g graph.Graph, src uint64, targets []uint64) ([][]uint64, error) {
	if len(targets) == 0 {
		return nil, nil
	}
	p, err := NewFanPlan(g)
	if err != nil {
		return nil, err
	}
	return p.Fan(src, targets)
}
