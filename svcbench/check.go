package main

import (
	"fmt"

	"repro/internal/core"
	"repro/internal/hhc"
	"repro/internal/pathsvc"
)

// verify checks every sampled answer of a phase against the paper's
// guarantee and an independent local construction, one answer at a time.
// It returns the number of wrong answers and the first failure.
func verify(g *hhc.Graph, st *stream, samples []sample) (wrong int, first error) {
	var req pathsvc.RequestV2
	for i := range samples {
		s := &samples[i]
		st.at(s.idx, &req)
		if err := checkAnswer(g, &req, &s.resp); err != nil {
			if first == nil {
				first = fmt.Errorf("request %d: %w", s.idx, err)
			}
			wrong++
		}
	}
	return wrong, first
}

func checkAnswer(g *hhc.Graph, req *pathsvc.RequestV2, resp *pathsvc.ResponseV2) error {
	if resp.Op != req.Op {
		return fmt.Errorf("answer op %d for request op %d", resp.Op, req.Op)
	}
	switch req.Op {
	case pathsvc.OpCodePaths:
		return checkPaths(g, req.U, req.V, resp)
	case pathsvc.OpCodeRoute:
		return checkRoute(g, req, resp)
	case pathsvc.OpCodeBatch:
		if len(resp.Results) != len(req.Pairs) {
			return fmt.Errorf("batch: %d results for %d pairs", len(resp.Results), len(req.Pairs))
		}
		for i, it := range resp.Results {
			p := req.Pairs[i]
			if it.U != p.U || it.V != p.V {
				return fmt.Errorf("batch item %d answers another pair", i)
			}
			if it.Err != "" {
				return fmt.Errorf("batch item %d: %s", i, it.Err)
			}
			if err := core.VerifyContainer(g, p.U, p.V, it.Paths); err != nil {
				return fmt.Errorf("batch item %d: %w", i, err)
			}
		}
		return nil
	}
	return fmt.Errorf("unexpected op %d", req.Op)
}

// checkPaths: a full answer is an (m+1)-wide disjoint container; a
// degraded one is disjoint and exactly as wide as it claims.
func checkPaths(g *hhc.Graph, u, v hhc.Node, resp *pathsvc.ResponseV2) error {
	full := g.Degree()
	if resp.Full != full {
		return fmt.Errorf("paths: full width %d, want %d", resp.Full, full)
	}
	if len(resp.Paths) != resp.Width {
		return fmt.Errorf("paths: %d paths but width %d", len(resp.Paths), resp.Width)
	}
	if !resp.Degraded {
		return core.VerifyContainer(g, u, v, resp.Paths)
	}
	if resp.Width < 1 || resp.Width >= full {
		return fmt.Errorf("paths: degraded width %d outside [1, %d)", resp.Width, full)
	}
	return core.VerifyDisjoint(g, u, v, resp.Paths)
}

// checkRoute: one valid u→v path avoiding every declared fault, as short
// as the shortest surviving path of a locally built container.
func checkRoute(g *hhc.Graph, req *pathsvc.RequestV2, resp *pathsvc.ResponseV2) error {
	if len(resp.Paths) != 1 {
		return fmt.Errorf("route: %d paths, want 1", len(resp.Paths))
	}
	p := resp.Paths[0]
	if err := g.VerifyPath(req.U, req.V, p); err != nil {
		return fmt.Errorf("route: %w", err)
	}
	faults := make(map[hhc.Node]bool, len(req.Faults))
	for _, f := range req.Faults {
		faults[f] = true
	}
	for _, w := range p {
		if faults[w] {
			return fmt.Errorf("route: passes declared fault %s", g.FormatNode(w))
		}
	}
	local, err := core.DisjointPathsOpt(g, req.U, req.V, core.Options{})
	if err != nil {
		return fmt.Errorf("route: local construction: %w", err)
	}
	best := -1
	for _, q := range core.SurvivingPaths(local, faults) {
		if best < 0 || len(q) < best {
			best = len(q)
		}
	}
	if best < 0 {
		return fmt.Errorf("route: answered, but no local path survives the faults")
	}
	if len(p) != best {
		return fmt.Errorf("route: %d hops, shortest surviving is %d", len(p)-1, best-1)
	}
	return nil
}
