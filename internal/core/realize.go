package core

import (
	"fmt"

	"repro/internal/hhc"
	"repro/internal/hypercube"
)

// realize lifts the selected super-paths into concrete node-disjoint paths.
//
// Every super-path with first dimension j ≠ dec(α) exits the source son-cube
// at processor j; a fan inside S_a connects α to all those exits without
// collisions. Symmetrically a fan inside S_b gathers the entry processors
// into β. The pass-through son-cubes of different super-paths are disjoint,
// so inside them a plain greedy walk needs no coordination.
func realize(g *hhc.Graph, u, v hhc.Node, seqs [][]int) ([][]hhc.Node, error) {
	m := g.M()
	alpha, beta := uint64(u.Y), uint64(v.Y)

	// Fan targets preserve the order of seqs so paths can look them up.
	n := len(seqs)
	idx := make([]int, 3*n)
	exitFor := idx[:n]       // index into fanA, or -1 for direct exit
	entryFor := idx[n : 2*n] // index into fanB, or -1 for direct entry
	lens := idx[2*n:]        // node count of each path
	fanTargets := make([]uint64, 2*n)
	exitTargets, entryTargets := fanTargets[:0:n], fanTargets[n:n]
	for i, seq := range seqs {
		first, last := uint64(seq[0]), uint64(seq[len(seq)-1])
		if first == alpha {
			exitFor[i] = -1
		} else {
			exitFor[i] = len(exitTargets)
			exitTargets = append(exitTargets, first)
		}
		if last == beta {
			entryFor[i] = -1
		} else {
			entryFor[i] = len(entryTargets)
			entryTargets = append(entryTargets, last)
		}
	}
	fanA, err := hypercube.Fan(m, alpha, exitTargets)
	if err != nil {
		return nil, fmt.Errorf("core: source fan: %w", err)
	}
	fanB, err := hypercube.Fan(m, beta, entryTargets)
	if err != nil {
		return nil, fmt.Errorf("core: destination fan: %w", err)
	}

	// Every path's length is known before any node is written: the fan
	// segments, one crossing per super-dimension, and a bit-fix walk of
	// Hamming length between consecutive processors. All paths share one
	// exact-size backing array, each capped so an append by a caller
	// cannot run into its neighbor.
	total := 0
	for i, seq := range seqs {
		size := 1 + len(seq)
		if fi := exitFor[i]; fi >= 0 {
			size += len(fanA[fi]) - 1
		}
		for k := 1; k < len(seq); k++ {
			size += hypercube.Hamming(uint64(seq[k-1]), uint64(seq[k]))
		}
		if fi := entryFor[i]; fi >= 0 {
			size += len(fanB[fi]) - 1
		}
		lens[i] = size
		total += size
	}
	backing := make([]hhc.Node, total)
	paths := make([][]hhc.Node, n)
	off := 0
	for i, seq := range seqs {
		path := append(backing[off:off:off+lens[i]], u)
		x, y := u.X, alpha
		if fi := exitFor[i]; fi >= 0 {
			for _, w := range fanA[fi][1:] {
				path = append(path, hhc.Node{X: x, Y: uint8(w)})
			}
			y = exitTargets[fi]
		}
		for k, dim := range seq {
			if k == 0 {
				if y != uint64(dim) {
					return nil, fmt.Errorf("core: internal: exit %d != first dim %d", y, dim)
				}
			} else {
				// Greedy bit-fixing walk y -> dim, least significant bit first.
				for diff := y ^ uint64(dim); diff != 0; diff &= diff - 1 {
					y ^= diff & -diff
					path = append(path, hhc.Node{X: x, Y: uint8(y)})
				}
			}
			x ^= 1 << uint(dim)
			path = append(path, hhc.Node{X: x, Y: uint8(y)})
		}
		if x != v.X {
			return nil, fmt.Errorf("core: internal: super-path %d lands in cube %#x, want %#x", i, x, v.X)
		}
		if fi := entryFor[i]; fi >= 0 {
			fb := fanB[fi] // β … entry; traverse backwards from entry to β
			if y != fb[len(fb)-1] {
				return nil, fmt.Errorf("core: internal: entry mismatch on path %d", i)
			}
			for k := len(fb) - 2; k >= 0; k-- {
				path = append(path, hhc.Node{X: x, Y: uint8(fb[k])})
			}
		}
		if got := path[len(path)-1]; got != v {
			return nil, fmt.Errorf("core: internal: path %d ends at %s, want %s", i, g.FormatNode(got), g.FormatNode(v))
		}
		if len(path) != lens[i] {
			return nil, fmt.Errorf("core: internal: path %d has %d nodes, sized for %d", i, len(path), lens[i])
		}
		paths[i] = path
		off += lens[i]
	}
	return paths, nil
}
