package core

import (
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"hash"
	"math/rand"
	"testing"

	"repro/internal/hhc"
)

// goldenContainerDigest is the SHA-256 of every container goldenDigest
// builds. It pins the construction's exact output — path order, path
// contents, fan choices — so that a change meant to be behaviour-preserving
// (a faster fan solver, a different realization buffer) is provably so.
// Update it only for a change that is meant to alter answers, and say so.
const goldenContainerDigest = "b0201f1faa4afc4a4010cc920e23287eafaa1bf88ca454049be648d700fa20ba"

// goldenDigest hashes DisjointPathsOpt's output over seeded pairs for
// m = 1..6: cross-cube pairs and same-cube pairs, each under the default
// options and under {OrderGray, DetourNearest}.
func goldenDigest(t *testing.T) string {
	t.Helper()
	h := sha256.New()
	opts := []Options{{}, {Order: OrderGray, Detour: DetourNearest}}
	for m := 1; m <= 6; m++ {
		g := mustGraph(t, m)
		r := rand.New(rand.NewSource(int64(1000 + m)))
		for oi, opt := range opts {
			for i := 0; i < 400; i++ {
				u := g.RandomNode(r)
				v := g.RandomNode(r)
				if i%4 == 0 {
					v.X = u.X // same-cube share of the sample
				}
				if u == v {
					continue
				}
				paths, err := DisjointPathsOpt(g, u, v, opt)
				if err != nil {
					t.Fatalf("m=%d opt=%d %s -> %s: %v", m, oi, g.FormatNode(u), g.FormatNode(v), err)
				}
				hashContainer(h, m, oi, u, v, paths)
			}
		}
	}
	return hex.EncodeToString(h.Sum(nil))
}

func hashContainer(h hash.Hash, m, oi int, u, v hhc.Node, paths [][]hhc.Node) {
	var buf [8]byte
	put := func(x uint64) {
		binary.LittleEndian.PutUint64(buf[:], x)
		h.Write(buf[:])
	}
	put(uint64(m))
	put(uint64(oi))
	put(u.X)
	put(uint64(u.Y))
	put(v.X)
	put(uint64(v.Y))
	put(uint64(len(paths)))
	for _, p := range paths {
		put(uint64(len(p)))
		for _, n := range p {
			put(n.X)
			put(uint64(n.Y))
		}
	}
}

// TestGoldenContainerDigest fails if any container in the seeded sample
// differs, in any node or in path order, from the pinned digest.
func TestGoldenContainerDigest(t *testing.T) {
	if got := goldenDigest(t); got != goldenContainerDigest {
		t.Fatalf("container digest = %s, want %s", got, goldenContainerDigest)
	}
}
