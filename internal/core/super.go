package core

import "fmt"

// selectSupers picks `count` super-paths (dimension sequences from a to b in
// the t-cube of son-cube addresses) satisfying the port discipline:
//
//   - pairwise internally node-disjoint in Q_t (rotations of one cyclic
//     order plus detours through distinct outside dimensions);
//   - pairwise distinct first dimensions and pairwise distinct last
//     dimensions (so son-cube exits and entries never collide);
//   - exactly one sequence starts with aDim = dec(α) — the only super-path
//     allowed to leave the source through its external edge — and exactly
//     one ends with bDim = dec(β).
//
// The count-path family always exists because t = 2^m ≥ m+1 candidates are
// available: all |D| rotations and a detour for every dimension outside D.
func selectSupers(t, count int, mask uint64, order []int, aDim, bDim int, detourPref []int) ([][]int, error) {
	d := len(order)
	if d == 0 {
		return nil, fmt.Errorf("core: empty dimension set")
	}
	// pos[dim] is dim's index in order; only dimensions in D are looked up.
	pos := make([]int, t)
	for i, dim := range order {
		pos[dim] = i
	}
	inD := func(j int) bool { return mask&(1<<uint(j)) != 0 }

	// Every sequence is carved from one backing array sized for count
	// detours (d+2 dimensions each, the longest kind), capped so the
	// sequences never share room.
	backing := make([]int, 0, count*(d+2))
	seqs := make([][]int, 0, count)
	// Bit i of rotUsed: rotation i is taken; bit j of detUsed: the detour
	// through dimension j is taken (d <= t <= 64).
	var rotUsed, detUsed uint64
	push := func(start int) {
		end := len(backing)
		seqs = append(seqs, backing[start:end:end])
	}
	addRot := func(i int) {
		if rotUsed&(1<<uint(i)) == 0 {
			rotUsed |= 1 << uint(i)
			start := len(backing)
			backing = append(backing, order[i:]...)
			backing = append(backing, order[:i]...)
			push(start)
		}
	}
	addDet := func(j int) {
		if detUsed&(1<<uint(j)) == 0 {
			detUsed |= 1 << uint(j)
			start := len(backing)
			backing = append(backing, j)
			backing = append(backing, order...)
			backing = append(backing, j)
			push(start)
		}
	}

	// The mandatory first-dimension path (leaves u externally).
	if inD(aDim) {
		addRot(pos[aDim])
	} else {
		addDet(aDim)
	}
	// The mandatory last-dimension path (enters v externally). The rotation
	// ending at bDim is the one starting right after it in cyclic order.
	if inD(bDim) {
		addRot((pos[bDim] + 1) % d)
	} else {
		addDet(bDim)
	}

	// Fill with the remaining rotations (length d beats detours' d+2), then
	// with detours through the smallest dimensions outside D. Dimensions
	// aDim and bDim are never picked here: when outside D their detours were
	// already added above, and when inside D no detour through them exists.
	for i := 0; i < d && len(seqs) < count; i++ {
		addRot(i)
	}
	if detourPref == nil {
		detourPref = make([]int, t)
		for i := range detourPref {
			detourPref[i] = i
		}
	}
	for _, j := range detourPref {
		if len(seqs) >= count {
			break
		}
		if !inD(j) && j != aDim && j != bDim {
			addDet(j)
		}
	}
	if len(seqs) != count {
		return nil, fmt.Errorf("core: selected %d super-paths, want %d (d=%d, t=%d)", len(seqs), count, d, t)
	}
	return seqs, nil
}
