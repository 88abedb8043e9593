package flow

import (
	"math/rand"
	"reflect"
	"sync"
	"testing"
)

// randomFans draws seeded (src, targets) instances in Q_k with 1..k
// distinct targets, none equal to src.
func randomFans(r *rand.Rand, k, count int) (srcs []uint64, targets [][]uint64) {
	for i := 0; i < count; i++ {
		src := r.Uint64() & (1<<uint(k) - 1)
		seen := map[uint64]bool{src: true}
		var ts []uint64
		for size := 1 + r.Intn(k); len(ts) < size; {
			v := r.Uint64() & (1<<uint(k) - 1)
			if !seen[v] {
				seen[v] = true
				ts = append(ts, v)
			}
		}
		srcs, targets = append(srcs, src), append(targets, ts)
	}
	return srcs, targets
}

// TestFanPlanReuseMatchesFresh: one plan answering many fans in a row —
// including refused ones in between — gives exactly what a plan built for
// each fan alone gives, so no state leaks from one call into the next.
func TestFanPlanReuseMatchesFresh(t *testing.T) {
	const k = 5
	g := cubeGraph(k)
	plan, err := NewFanPlan(g)
	if err != nil {
		t.Fatal(err)
	}
	srcs, targets := randomFans(rand.New(rand.NewSource(5)), k, 200)
	for i, src := range srcs {
		if _, err := plan.Fan(src, []uint64{targets[i][0], targets[i][0]}); err == nil {
			t.Fatal("duplicate target: want error")
		}
		if _, err := plan.Fan(src, []uint64{src}); err == nil {
			t.Fatal("target == source: want error")
		}
		got, err := plan.Fan(src, targets[i])
		if err != nil {
			t.Fatal(err)
		}
		want, err := VertexDisjointFan(g, src, targets[i])
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(got, want) {
			t.Fatalf("fan %d (src %d, targets %v): reused plan %v, fresh %v", i, src, targets[i], got, want)
		}
	}
}

// TestFanPlanConcurrent: goroutines sharing one plan each get their own
// scratch (run under -race to check the free list).
func TestFanPlanConcurrent(t *testing.T) {
	const k = 4
	g := cubeGraph(k)
	plan, err := NewFanPlan(g)
	if err != nil {
		t.Fatal(err)
	}
	srcs, targets := randomFans(rand.New(rand.NewSource(6)), k, 64)
	want := make([][][]uint64, len(srcs))
	for i, src := range srcs {
		if want[i], err = VertexDisjointFan(g, src, targets[i]); err != nil {
			t.Fatal(err)
		}
	}
	var wg sync.WaitGroup
	for w := 0; w < 4; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for round := 0; round < 5; round++ {
				for i := w; i < len(srcs); i += 4 {
					got, err := plan.Fan(srcs[i], targets[i])
					if err != nil {
						t.Error(err)
						return
					}
					if !reflect.DeepEqual(got, want[i]) {
						t.Errorf("fan %d differs under concurrency", i)
						return
					}
				}
			}
		}(w)
	}
	wg.Wait()
}

func TestFanPlanRange(t *testing.T) {
	plan, err := NewFanPlan(cubeGraph(3))
	if err != nil {
		t.Fatal(err)
	}
	if _, err := plan.Fan(8, []uint64{1}); err == nil {
		t.Error("source out of range: want error")
	}
	if _, err := plan.Fan(0, []uint64{1, 8}); err == nil {
		t.Error("target out of range: want error")
	}
	if _, err := plan.Fan(0, []uint64{1, 2}); err != nil {
		t.Errorf("valid fan after refusals: %v", err)
	}
}
