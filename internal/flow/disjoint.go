package flow

import (
	"fmt"

	"repro/internal/graph"
)

// inf is the split capacity of a vertex that may carry any number of paths
// (the endpoints of an s–t problem, the source of a fan).
const inf = int32(1 << 30)

// splitNetwork builds the node-split transformation of g: every vertex v
// becomes in(v)=2v and out(v)=2v+1 joined by a unit-capacity edge (infinite
// for the vertices listed in unbounded), and every undirected edge {u,v}
// becomes out(u)->in(v) and out(v)->in(u) with unit capacity. Edge costs are
// 1 on adjacency edges and 0 on split edges so that min-cost solutions
// minimize total path length. splitEdge[v] is the ID of v's split edge.
func splitNetwork(g graph.Graph, unbounded ...uint64) (nw *Network, splitEdge []int32, err error) {
	n := g.Order()
	if n > graph.MaxDenseOrder/2 {
		return nil, nil, fmt.Errorf("%w: order %d", graph.ErrTooLarge, n)
	}
	nw = NewNetwork(int(2 * n))
	splitEdge = make([]int32, n)
	buf := make([]uint64, 0, g.MaxDegree())
	for v := int64(0); v < n; v++ {
		capV := int32(1)
		for _, u := range unbounded {
			if u == uint64(v) {
				capV = inf
			}
		}
		splitEdge[v] = int32(nw.AddEdge(int32(2*v), int32(2*v+1), capV, 0))
		buf = g.Neighbors(uint64(v), buf[:0])
		for _, w := range buf {
			nw.AddEdge(int32(2*v+1), int32(2*uint64(w)), 1, 1)
		}
	}
	return nw, splitEdge, nil
}

// walkFlow decomposes the unit flow leaving out(src) on a split network
// into up to units vertex paths (original vertex IDs). Each walk starts at
// src and repeatedly takes, from the current vertex's out-side, the first
// unconsumed adjacency edge carrying flow in edge-list order; it stops at
// the first vertex v with ends[v] >= 0. A walk that runs dry before
// reaching such a vertex is dropped. Kept walks are appended to buf back to
// back, and each one's end offset into buf is appended to offs. consumed
// holds one entry per edge ID and must be all false on entry.
func walkFlow(nw *Network, src uint64, units int, ends []int32, consumed []bool, buf []uint64, offs []int) ([]uint64, []int) {
	for p := 0; p < units; p++ {
		start := len(buf)
		buf = append(buf, src)
		cur := int32(2*src + 1) // out(src)
		for {
			var chosen int32 = -1
			for e := nw.first[cur]; e != -1; e = nw.next[e] {
				if e%2 != 0 || consumed[e] {
					continue // residual twin or already used
				}
				if nw.Flow(int(e)) > 0 && nw.cost[e] > 0 { // adjacency edge carrying flow
					chosen = e
					break
				}
			}
			if chosen == -1 {
				break
			}
			consumed[chosen] = true
			next := uint64(nw.to[chosen]) / 2 // in(next) -> original ID
			buf = append(buf, next)
			if ends[next] >= 0 {
				break
			}
			cur = int32(2*next + 1)
		}
		if len(buf)-start > 1 && ends[buf[len(buf)-1]] >= 0 {
			offs = append(offs, len(buf))
		} else {
			buf = buf[:start]
		}
	}
	return buf, offs
}

// extractPaths decomposes a unit flow on a split network into vertex paths
// from s to t (original vertex IDs). Each unit of flow yields one path.
func extractPaths(nw *Network, s, t uint64, units int) [][]uint64 {
	ends := make([]int32, nw.Order()/2)
	for i := range ends {
		ends[i] = -1
	}
	ends[t] = 0
	buf, offs := walkFlow(nw, s, units, ends, make([]bool, nw.NumEdges()), nil, make([]int, 0, units))
	paths := make([][]uint64, len(offs))
	start := 0
	for i, end := range offs {
		paths[i] = buf[start:end:end]
		start = end
	}
	return paths
}

// VertexDisjointPaths returns up to limit pairwise internally vertex-disjoint
// paths from s to t in g, computed by max flow on the node-split graph
// (Menger's theorem). limit <= 0 finds the maximum number. When minCost is
// true the min-cost solver is used, which makes the total length of the
// returned family minimum for its cardinality; this is only advisable for
// small graphs.
func VertexDisjointPaths(g graph.Graph, s, t uint64, limit int, minCost bool) ([][]uint64, error) {
	if s == t {
		return nil, fmt.Errorf("flow: source equals target (%d)", s)
	}
	if int64(s) >= g.Order() || int64(t) >= g.Order() {
		return nil, fmt.Errorf("flow: vertex out of range [0,%d)", g.Order())
	}
	nw, _, err := splitNetwork(g, s, t)
	if err != nil {
		return nil, err
	}
	src, dst := int32(2*s+1), int32(2*t)
	var units int32
	if minCost {
		units, _ = nw.MinCostFlow(src, dst, int32(limit))
	} else {
		units = nw.MaxFlow(src, dst, int32(limit))
	}
	return extractPaths(nw, s, t, int(units)), nil
}

// LocalConnectivity returns the maximum number of internally vertex-disjoint
// s-t paths, i.e. the size of a minimum s-t vertex cut when s and t are not
// adjacent (Menger).
func LocalConnectivity(g graph.Graph, s, t uint64) (int, error) {
	if s == t {
		return 0, fmt.Errorf("flow: source equals target (%d)", s)
	}
	nw, _, err := splitNetwork(g, s, t)
	if err != nil {
		return 0, err
	}
	return int(nw.MaxFlow(int32(2*s+1), int32(2*t), 0)), nil
}
