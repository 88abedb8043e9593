package hypercube

import (
	"math/rand"
	"testing"
)

// verifyFan checks the strong fan property: valid simple paths from src to
// each target, pairwise sharing only src, no path crossing another target.
func verifyFan(t *testing.T, k int, src uint64, targets []uint64, fan [][]uint64) {
	t.Helper()
	if len(fan) != len(targets) {
		t.Fatalf("fan has %d paths, want %d", len(fan), len(targets))
	}
	targetSet := map[uint64]bool{}
	for _, tg := range targets {
		targetSet[tg] = true
	}
	seen := map[uint64]int{}
	for i, p := range fan {
		if err := VerifyPath(k, src, targets[i], p); err != nil {
			t.Fatalf("fan path %d: %v", i, err)
		}
		for _, v := range p[1:] {
			if v != targets[i] && targetSet[v] {
				t.Fatalf("fan path %d passes through foreign target %#x", i, v)
			}
		}
		for _, v := range p[1:] {
			if prev, ok := seen[v]; ok {
				t.Fatalf("fan paths %d and %d share %#x", prev, i, v)
			}
			seen[v] = i
		}
	}
}

// TestFanExhaustiveQ3 tries every source and every full-size target set in
// Q_3 (8 vertices, C(7,3)=35 target sets per source).
func TestFanExhaustiveQ3(t *testing.T) {
	const k = 3
	for src := uint64(0); src < 8; src++ {
		var others []uint64
		for v := uint64(0); v < 8; v++ {
			if v != src {
				others = append(others, v)
			}
		}
		for i := 0; i < len(others); i++ {
			for j := i + 1; j < len(others); j++ {
				for l := j + 1; l < len(others); l++ {
					targets := []uint64{others[i], others[j], others[l]}
					fan, err := Fan(k, src, targets)
					if err != nil {
						t.Fatalf("Fan(src=%#x, %v): %v", src, targets, err)
					}
					verifyFan(t, k, src, targets, fan)
				}
			}
		}
	}
}

// TestFanRandom exercises larger cubes with random target sets.
func TestFanRandom(t *testing.T) {
	r := rand.New(rand.NewSource(3))
	for _, k := range []int{4, 5, 6} {
		for trial := 0; trial < 100; trial++ {
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
			fan, err := Fan(k, src, targets)
			if err != nil {
				t.Fatalf("k=%d Fan: %v", k, err)
			}
			verifyFan(t, k, src, targets, fan)
		}
	}
}

// TestFanNeighborsOnly: when the targets are exactly the k neighbors of src,
// the fan must be the k single edges.
func TestFanNeighborsOnly(t *testing.T) {
	const k = 4
	src := uint64(0b0110)
	targets := Neighbors(k, src, nil)
	fan, err := Fan(k, src, targets)
	if err != nil {
		t.Fatal(err)
	}
	verifyFan(t, k, src, targets, fan)
	for i, p := range fan {
		if len(p) != 2 {
			t.Fatalf("path %d to neighbor has length %d, want 1 edge", i, len(p)-1)
		}
	}
}

func TestFanErrors(t *testing.T) {
	if _, err := Fan(3, 0, []uint64{0}); err == nil {
		t.Error("target == src: want error")
	}
	if _, err := Fan(3, 0, []uint64{1, 1}); err == nil {
		t.Error("duplicate target: want error")
	}
	if _, err := Fan(3, 0, []uint64{1, 2, 4, 7}); err == nil {
		t.Error("more targets than connectivity: want error")
	}
	if _, err := Fan(3, 0, []uint64{9}); err == nil {
		t.Error("target out of range: want error")
	}
	if got, err := Fan(3, 0, nil); err != nil || got != nil {
		t.Errorf("empty fan: got %v, %v", got, err)
	}
	if _, err := Fan(MaxFanDim+1, 0, []uint64{1}); err == nil {
		t.Error("dimension too large: want error")
	}
}

// FanAllocBudget bounds the allocations of one Fan in Q_5 once the
// dimension's plan exists: the result's path list and its one backing
// array. Solver scratch is recycled, so a regression that rebuilds the
// split network or allocates per walk shows here.
const FanAllocBudget = 8

func TestFanAllocBudget(t *testing.T) {
	const k = 5
	src := uint64(0b00101)
	targets := []uint64{0b11010, 0b00001, 0b10100, 0b01111, 0b00111}
	got := testing.AllocsPerRun(200, func() {
		if _, err := Fan(k, src, targets); err != nil {
			t.Fatal(err)
		}
	})
	if got > FanAllocBudget {
		t.Errorf("Fan in Q_%d allocates %.1f allocs/op, budget %d", k, got, FanAllocBudget)
	}
	t.Logf("Fan in Q_%d: %.1f allocs/op (budget %d)", k, got, FanAllocBudget)
}
