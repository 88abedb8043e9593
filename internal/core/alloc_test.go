package core

import (
	"testing"

	"repro/internal/hhc"
)

// ConstructAllocBudget is the allocation budget of one uninstrumented
// cross-cube DisjointPathsOpt at m = 5. Measured: 13 allocs/op — the
// derived order and detour preference, selectSupers' position table,
// sequence backing and sequence list, realize's index and fan-target
// tables, the two fans' results (path list + one backing array each),
// and the container (path list + one backing array). The son-cube split
// network is built once per dimension and its solver scratch recycled, so
// none of it is paid per request. The margin is for a new
// strategy-dependent slice, not for per-segment or per-path allocations.
const ConstructAllocBudget = 20

// TestConstructAllocBudget pins ConstructAllocBudget. Nothing on the path
// draws from a sync.Pool, so the count depends only on the pair and is the
// same on every repetition (go test -count=N).
func TestConstructAllocBudget(t *testing.T) {
	SetObserver(nil)
	g := mustGraph(t, 5)
	u := hhc.Node{X: 0x0000_0001, Y: 3}
	v := hhc.Node{X: 0xdead_beef, Y: 17}
	got := testing.AllocsPerRun(200, func() {
		if _, err := DisjointPathsOpt(g, u, v, Options{}); err != nil {
			t.Fatal(err)
		}
	})
	if got > ConstructAllocBudget {
		t.Errorf("m=5 cross-cube construction allocates %.1f allocs/op, budget %d", got, ConstructAllocBudget)
	}
	t.Logf("m=5 cross-cube construction: %.1f allocs/op (budget %d)", got, ConstructAllocBudget)
}

// TestContainerPathsCapped: the paths of a container share one backing
// array, so each must be capped at its own length — appending to one path
// reallocates it rather than overwriting the next.
func TestContainerPathsCapped(t *testing.T) {
	g := mustGraph(t, 4)
	u, v := hhc.Node{X: 0x0001, Y: 2}, hhc.Node{X: 0xbeef, Y: 7}
	paths, err := DisjointPaths(g, u, v)
	if err != nil {
		t.Fatal(err)
	}
	for i, p := range paths {
		if cap(p) != len(p) {
			t.Fatalf("path %d: len %d, cap %d", i, len(p), cap(p))
		}
	}
	_ = append(paths[0], hhc.Node{X: 0xdead})
	if err := VerifyContainer(g, u, v, paths); err != nil {
		t.Fatalf("append to path 0 disturbed the container: %v", err)
	}
}
