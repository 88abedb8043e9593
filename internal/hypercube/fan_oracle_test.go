package hypercube

import (
	"fmt"
	"math"
	"math/rand"
	"reflect"
	"testing"
)

// This file holds a frozen, self-contained copy of the original map-based
// fan solver — split network rebuilt on every call, SPFA min-cost flow,
// map bookkeeping in the decomposition — as an oracle. Fan must return
// exactly what it returns (same paths, same order), so any optimisation of
// the production solver is checked against it node for node.

type oracleNet struct {
	n                          int
	first, next, to, cap, cost []int32
}

func newOracleNet(n int) *oracleNet {
	first := make([]int32, n)
	for i := range first {
		first[i] = -1
	}
	return &oracleNet{n: n, first: first}
}

func (nw *oracleNet) addEdge(u, v, capacity, cost int32) {
	id := int32(len(nw.to))
	nw.to = append(nw.to, v, u)
	nw.cap = append(nw.cap, capacity, 0)
	nw.cost = append(nw.cost, cost, -cost)
	nw.next = append(nw.next, nw.first[u], nw.first[v])
	nw.first[u] = id
	nw.first[v] = id + 1
}

func (nw *oracleNet) minCostFlow(s, t, limit int32) int32 {
	dist := make([]int32, nw.n)
	inQueue := make([]bool, nw.n)
	parentEdge := make([]int32, nw.n)
	var flowVal int32
	for flowVal < limit {
		for i := range dist {
			dist[i] = math.MaxInt32
			parentEdge[i] = -1
		}
		dist[s] = 0
		queue := []int32{s}
		inQueue[s] = true
		for len(queue) > 0 {
			v := queue[0]
			queue = queue[1:]
			inQueue[v] = false
			for e := nw.first[v]; e != -1; e = nw.next[e] {
				w := nw.to[e]
				if nw.cap[e] > 0 && dist[v]+nw.cost[e] < dist[w] {
					dist[w] = dist[v] + nw.cost[e]
					parentEdge[w] = e
					if !inQueue[w] {
						inQueue[w] = true
						queue = append(queue, w)
					}
				}
			}
		}
		if parentEdge[t] == -1 {
			break
		}
		push := limit - flowVal
		for v := t; v != s; {
			e := parentEdge[v]
			if nw.cap[e] < push {
				push = nw.cap[e]
			}
			v = nw.to[e^1]
		}
		for v := t; v != s; {
			e := parentEdge[v]
			nw.cap[e] -= push
			nw.cap[e^1] += push
			v = nw.to[e^1]
		}
		flowVal += push
	}
	return flowVal
}

// oracleFan is the original VertexDisjointFan specialised to Q_k.
func oracleFan(k int, src uint64, targets []uint64) ([][]uint64, error) {
	n := uint64(1) << uint(k)
	nw := newOracleNet(int(2*n) + 1)
	const inf = int32(1 << 30)
	for v := uint64(0); v < n; v++ {
		capV := int32(1)
		if v == src {
			capV = inf
		}
		nw.addEdge(int32(2*v), int32(2*v+1), capV, 0)
		for _, w := range Neighbors(k, v, nil) {
			nw.addEdge(int32(2*v+1), int32(2*w), 1, 1)
		}
	}
	super := int32(2 * n)
	for _, t := range targets {
		nw.addEdge(int32(2*t+1), super, 1, 0)
	}
	if got := nw.minCostFlow(int32(2*src+1), super, int32(len(targets))); got != int32(len(targets)) {
		return nil, fmt.Errorf("oracle: only %d paths", got)
	}
	targetSet := make(map[uint64]bool, len(targets))
	for _, t := range targets {
		targetSet[t] = true
	}
	byEnd := make(map[uint64][]uint64, len(targets))
	consumed := make(map[int32]bool)
	for range targets {
		path := []uint64{src}
		cur := int32(2*src + 1)
		for {
			var chosen int32 = -1
			for e := nw.first[cur]; e != -1; e = nw.next[e] {
				if e%2 != 0 || consumed[e] {
					continue
				}
				if nw.cap[e^1] > 0 && nw.cost[e] > 0 {
					chosen = e
					break
				}
			}
			if chosen == -1 {
				break
			}
			consumed[chosen] = true
			next := uint64(nw.to[chosen]) / 2
			path = append(path, next)
			if targetSet[next] {
				break
			}
			cur = int32(2*next + 1)
		}
		if len(path) > 1 && targetSet[path[len(path)-1]] {
			byEnd[path[len(path)-1]] = path
		}
	}
	out := make([][]uint64, len(targets))
	for i, t := range targets {
		p, ok := byEnd[t]
		if !ok {
			return nil, fmt.Errorf("oracle: no path to %d", t)
		}
		out[i] = p
	}
	return out, nil
}

func checkFanOracle(t *testing.T, k int, src uint64, targets []uint64) {
	t.Helper()
	want, err := oracleFan(k, src, targets)
	if err != nil {
		t.Fatalf("k=%d src=%#x targets=%v: %v", k, src, targets, err)
	}
	got, err := Fan(k, src, targets)
	if err != nil {
		t.Fatalf("k=%d src=%#x targets=%v: Fan: %v", k, src, targets, err)
	}
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("k=%d src=%#x targets=%v:\n Fan    %v\n oracle %v", k, src, targets, got, want)
	}
}

// TestFanMatchesOracleQ3 compares Fan with the oracle on every source and
// every ordered target tuple of size 1..3 in Q_3 (2072 fans).
func TestFanMatchesOracleQ3(t *testing.T) {
	const k = 3
	var rec func(src uint64, targets []uint64, used uint64)
	rec = func(src uint64, targets []uint64, used uint64) {
		if len(targets) > 0 {
			checkFanOracle(t, k, src, targets)
		}
		if len(targets) == k {
			return
		}
		for v := uint64(0); v < 1<<k; v++ {
			if used&(1<<v) == 0 {
				rec(src, append(targets, v), used|1<<v)
			}
		}
	}
	for src := uint64(0); src < 1<<k; src++ {
		rec(src, make([]uint64, 0, k), 1<<src)
	}
}

// TestFanMatchesOracleSampled compares Fan with the oracle on seeded
// random sources and ordered target tuples in Q_4..Q_6.
func TestFanMatchesOracleSampled(t *testing.T) {
	r := rand.New(rand.NewSource(17))
	for k := 4; k <= 6; k++ {
		for trial := 0; trial < 300; trial++ {
			src := r.Uint64() & (1<<uint(k) - 1)
			size := 1 + r.Intn(k)
			seen := map[uint64]bool{src: true}
			targets := make([]uint64, 0, size)
			for len(targets) < size {
				v := r.Uint64() & (1<<uint(k) - 1)
				if !seen[v] {
					seen[v] = true
					targets = append(targets, v)
				}
			}
			checkFanOracle(t, k, src, targets)
		}
	}
}
