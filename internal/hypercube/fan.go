package hypercube

import (
	"fmt"
	"sync"

	"repro/internal/flow"
)

// MaxFanDim bounds the cube dimension accepted by Fan: the exact min-cost
// flow solver runs on the 2·2^k-vertex split graph, so we keep k small. The
// hierarchical hypercube only ever needs k = m <= 6.
const MaxFanDim = 16

// fanPlans holds one split-network plan per cube dimension, each built on
// the first fan in that dimension and shared by every later one.
var fanPlans [MaxFanDim + 1]struct {
	once sync.Once
	plan *flow.FanPlan
	err  error
}

// fanPlan returns the shared plan for Q_k (0 <= k <= MaxFanDim).
func fanPlan(k int) (*flow.FanPlan, error) {
	p := &fanPlans[k]
	p.once.Do(func() {
		g, err := NewGraph(k)
		if err != nil {
			p.err = err
			return
		}
		p.plan, p.err = flow.NewFanPlan(g)
	})
	return p.plan, p.err
}

// Fan returns len(targets) vertex paths in Q_k from src to each target such
// that the paths pairwise share only src and no path passes through another
// target. Targets must be distinct, different from src, and at most k of
// them (Q_k is k-connected, so a fan of size <= k always exists by the fan
// lemma; the solver proves it constructively). The returned family has
// minimum total length and is index-aligned with targets.
func Fan(k int, src uint64, targets []uint64) ([][]uint64, error) {
	if err := CheckVertex(k, src); err != nil {
		return nil, err
	}
	if k > MaxFanDim {
		return nil, fmt.Errorf("hypercube: fan dimension %d exceeds %d", k, MaxFanDim)
	}
	if len(targets) > k {
		return nil, fmt.Errorf("hypercube: fan of %d targets exceeds connectivity %d", len(targets), k)
	}
	for _, t := range targets {
		if err := CheckVertex(k, t); err != nil {
			return nil, err
		}
	}
	if len(targets) == 0 {
		return nil, nil
	}
	plan, err := fanPlan(k)
	if err != nil {
		return nil, err
	}
	return plan.Fan(src, targets)
}
