package main

import (
	"bytes"
	"encoding/json"
	"os"
	"strconv"
	"strings"
	"sync"
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/hhc"
	"repro/internal/pathsvc"
)

func testStream(t *testing.T, name string, seed, phaseID uint64) *stream {
	t.Helper()
	w, err := findWorkload(name)
	if err != nil {
		t.Fatal(err)
	}
	g, err := hhc.New(w.m)
	if err != nil {
		t.Fatal(err)
	}
	var pool []pathsvc.NodePair
	if w.pool > 0 {
		pool = newPool(g, seed, w.pool)
	}
	return newStream(w, g, seed, phaseID, pool)
}

// encodeStream renders the first n requests of a stream as wire-v2 bytes.
func encodeStream(st *stream, n int) []byte {
	var buf []byte
	var req pathsvc.RequestV2
	for i := 0; i < n; i++ {
		st.at(uint64(i), &req)
		buf = pathsvc.AppendRequestV2(buf, &req)
	}
	return buf
}

func TestStreamDeterministic(t *testing.T) {
	for _, w := range workloads {
		a := encodeStream(testStream(t, w.name, 7, phaseClosed), 2000)
		b := encodeStream(testStream(t, w.name, 7, phaseClosed), 2000)
		if !bytes.Equal(a, b) {
			t.Errorf("%s: same seed gave different request streams", w.name)
		}
		c := encodeStream(testStream(t, w.name, 8, phaseClosed), 2000)
		if bytes.Equal(a, c) {
			t.Errorf("%s: seeds 7 and 8 gave the same request stream", w.name)
		}
		d := encodeStream(testStream(t, w.name, 7, phaseOpen), 2000)
		if bytes.Equal(a, d) {
			t.Errorf("%s: two phases of one seed replay the same stream", w.name)
		}
	}
}

func TestStreamRequestsAreAnswerable(t *testing.T) {
	st := testStream(t, "mixed", 3, phaseClosed)
	var req pathsvc.RequestV2
	ops := map[uint8]int{}
	for i := uint64(0); i < 5000; i++ {
		st.at(i, &req)
		ops[req.Op]++
		for _, f := range req.Faults {
			if f == req.U || f == req.V {
				t.Fatalf("request %d declares an endpoint faulty", i)
			}
		}
		if req.Op != pathsvc.OpCodeBatch && req.U == req.V {
			t.Fatalf("request %d has u == v", i)
		}
	}
	for _, op := range []uint8{pathsvc.OpCodePaths, pathsvc.OpCodeRoute, pathsvc.OpCodeBatch} {
		if ops[op] == 0 {
			t.Errorf("op %d never generated in the mixed stream: %v", op, ops)
		}
	}
}

func TestZipfHitsDistinctKeyCount(t *testing.T) {
	g, err := hhc.New(4)
	if err != nil {
		t.Fatal(err)
	}
	const n = 1024
	pool := newPool(g, 5, n)
	keys := map[canonKey]bool{}
	for _, p := range pool {
		keys[keyOf(p.U, p.V)] = true
	}
	if len(keys) != n {
		t.Fatalf("pool has %d distinct canonical keys, want %d", len(keys), n)
	}
	w := &workload{m: 4, pool: n, zipf: 1.0}
	st := newStream(w, g, 5, phaseClosed, pool)
	seen := map[canonKey]int{}
	var req pathsvc.RequestV2
	for i := uint64(0); i < 200000; i++ {
		st.at(i, &req)
		seen[keyOf(req.U, req.V)]++
	}
	if len(seen) != n {
		t.Errorf("200000 Zipf draws hit %d distinct keys, want exactly %d", len(seen), n)
	}
	top, tail := seen[keyOf(pool[0].U, pool[0].V)], seen[keyOf(pool[n-1].U, pool[n-1].V)]
	if top < 50*tail {
		t.Errorf("rank 0 drawn %d times, rank %d drawn %d: not Zipf-skewed", top, n-1, tail)
	}
}

func TestInputStatsOrderWorkloads(t *testing.T) {
	for _, seed := range []uint64{1, 2} {
		hot, _ := testStream(t, "hot", seed, phaseClosed).inputStats(20000)
		cold, _ := testStream(t, "cold", seed, phaseClosed).inputStats(20000)
		mixed, _ := testStream(t, "mixed", seed, phaseClosed).inputStats(20000)
		if hot < 0.99 || cold > 0.01 || mixed <= cold || mixed >= hot {
			t.Errorf("seed %d: repeat shares hot=%.4f cold=%.4f mixed=%.4f, want hot≈1 > mixed > cold≈0",
				seed, hot, cold, mixed)
		}
	}
}

func TestPercentileKeepsTenBeyond(t *testing.T) {
	mk := func(n int) []int64 {
		xs := make([]int64, n)
		for i := range xs {
			xs[i] = int64(i + 1)
		}
		return xs
	}
	if _, ok := pct(mk(999), 99); ok {
		t.Error("p99 of 999 samples reported with fewer than 10 beyond it")
	}
	v, ok := pct(mk(1000), 99)
	if !ok || v != 990 {
		t.Errorf("p99 of 1..1000 = %d (ok=%v), want 990 with 10 beyond", v, ok)
	}
	if v, ok := pct(mk(1000), 50); !ok || v != 500 {
		t.Errorf("p50 of 1..1000 = %d, want 500", v)
	}
}

// pausingServer answers instantly except once: the request with index
// pauseAt stalls every request in flight or arriving for pause.
type pausingServer struct {
	pauseAt uint64
	pause   time.Duration
	mu      sync.Mutex
	until   time.Time
}

func (f *pausingServer) send(_ int, idx uint64, req *pathsvc.RequestV2, resp *pathsvc.ResponseV2) error {
	f.mu.Lock()
	if idx == f.pauseAt {
		f.until = time.Now().Add(f.pause)
	}
	until := f.until
	f.mu.Unlock()
	time.Sleep(time.Until(until))
	*resp = pathsvc.ResponseV2{Op: req.Op}
	return nil
}

func TestOpenLoopChargesStallToLaterRequests(t *testing.T) {
	const rate = 2000.0 // one request every 0.5 ms
	f := &pausingServer{pauseAt: 200, pause: 100 * time.Millisecond}
	st := testStream(t, "hot", 1, phaseOpen)
	p := runOpen("stall", f.send, st, sampler{}, openOpts{workers: 8, rate: rate, dur: 500 * time.Millisecond})
	if len(p.due) != 1000 {
		t.Fatalf("%d samples, want 1000", len(p.due))
	}
	lat := map[int64]int64{}
	for _, s := range p.due {
		lat[s.idx] = s.lat
	}
	// Requests due while the server stalled waited for it, counted from
	// their due time: the one due 50 ms into the stall waited ~50 ms more,
	// though its send happened only when the stall ended.
	for _, idx := range []int64{220, 300, 380} {
		remaining := 100*time.Millisecond - dueAt(idx-200, rate)
		if got := time.Duration(lat[idx]); got < remaining-5*time.Millisecond {
			t.Errorf("request %d: latency %v, want at least the %v of stall left at its due time", idx, got, remaining)
		}
	}
	if got := time.Duration(lat[900]); got > 20*time.Millisecond {
		t.Errorf("request 900, due long after the stall: latency %v", got)
	}
}

func TestClosedLoopSendsStreamPrefix(t *testing.T) {
	st := testStream(t, "hot", 1, phaseClosed)
	var mu sync.Mutex
	seen := map[uint64]bool{}
	send := func(_ int, idx uint64, req *pathsvc.RequestV2, resp *pathsvc.ResponseV2) error {
		mu.Lock()
		seen[idx] = true
		mu.Unlock()
		*resp = pathsvc.ResponseV2{Op: req.Op}
		return nil
	}
	p := runClosed("c", send, st, sampler{}, closedOpts{workers: 4, limit: 500})
	if p.tally.sent != 500 || len(seen) != 500 {
		t.Fatalf("sent %d distinct %d, want 500", p.tally.sent, len(seen))
	}
	for i := uint64(0); i < 500; i++ {
		if !seen[i] {
			t.Fatalf("request %d of the prefix never sent", i)
		}
	}
}

func TestCheckAnswerCatchesWrongAnswers(t *testing.T) {
	g, err := hhc.New(3)
	if err != nil {
		t.Fatal(err)
	}
	u, v := hhc.Node{X: 0x00, Y: 0}, hhc.Node{X: 0xff, Y: 5}
	paths, err := core.DisjointPathsOpt(g, u, v, core.Options{})
	if err != nil {
		t.Fatal(err)
	}
	full := len(paths)
	paths2 := &pathsvc.RequestV2{Op: pathsvc.OpCodePaths, U: u, V: v}
	good := &pathsvc.ResponseV2{Op: pathsvc.OpCodePaths, Paths: paths, Width: full, Full: full}
	if err := checkAnswer(g, paths2, good); err != nil {
		t.Fatalf("correct container rejected: %v", err)
	}
	short := &pathsvc.ResponseV2{Op: pathsvc.OpCodePaths, Paths: paths[:full-1], Width: full - 1, Full: full}
	if checkAnswer(g, paths2, short) == nil {
		t.Error("narrow answer not flagged degraded was accepted")
	}
	degraded := *short
	degraded.Degraded = true
	if err := checkAnswer(g, paths2, &degraded); err != nil {
		t.Errorf("honest degraded answer rejected: %v", err)
	}
	lying := degraded
	lying.Width = full - 2
	if checkAnswer(g, paths2, &lying) == nil {
		t.Error("degraded answer with a wrong width claim accepted")
	}
	shared := [][]hhc.Node{paths[0], paths[0]}
	dup := &pathsvc.ResponseV2{Op: pathsvc.OpCodePaths, Paths: shared, Width: 2, Full: full, Degraded: true}
	if checkAnswer(g, paths2, dup) == nil {
		t.Error("degraded answer with non-disjoint paths accepted")
	}

	// Route: the shortest surviving path is right; a longer survivor or
	// one through a declared fault is wrong.
	byLen := append([][]hhc.Node(nil), paths...)
	for i := range byLen {
		for j := i + 1; j < len(byLen); j++ {
			if len(byLen[j]) < len(byLen[i]) {
				byLen[i], byLen[j] = byLen[j], byLen[i]
			}
		}
	}
	fault := byLen[0][1]
	route := &pathsvc.RequestV2{Op: pathsvc.OpCodeRoute, U: u, V: v, Faults: []hhc.Node{fault}}
	surviving := core.SurvivingPaths(paths, map[hhc.Node]bool{fault: true})
	best := surviving[0]
	for _, p := range surviving {
		if len(p) < len(best) {
			best = p
		}
	}
	if err := checkAnswer(g, route, &pathsvc.ResponseV2{Op: pathsvc.OpCodeRoute, Paths: [][]hhc.Node{best}}); err != nil {
		t.Errorf("shortest surviving route rejected: %v", err)
	}
	if checkAnswer(g, route, &pathsvc.ResponseV2{Op: pathsvc.OpCodeRoute, Paths: [][]hhc.Node{byLen[0]}}) == nil {
		t.Error("route through a declared fault accepted")
	}
	longest := surviving[0]
	for _, p := range surviving {
		if len(p) > len(longest) {
			longest = p
		}
	}
	if len(longest) > len(best) && checkAnswer(g, route, &pathsvc.ResponseV2{Op: pathsvc.OpCodeRoute, Paths: [][]hhc.Node{longest}}) == nil {
		t.Error("longer-than-shortest surviving route accepted")
	}

	// Batch: checked item by item.
	batch := &pathsvc.RequestV2{Op: pathsvc.OpCodeBatch, Pairs: []pathsvc.NodePair{{U: u, V: v}, {U: u, V: v}}}
	items := []pathsvc.BatchItemV2{{U: u, V: v, Paths: paths}, {U: u, V: v, Paths: paths[:1]}}
	if checkAnswer(g, batch, &pathsvc.ResponseV2{Op: pathsvc.OpCodeBatch, Results: items}) == nil {
		t.Error("batch with one narrow item accepted")
	}
	items[1].Paths = paths
	if err := checkAnswer(g, batch, &pathsvc.ResponseV2{Op: pathsvc.OpCodeBatch, Results: items}); err != nil {
		t.Errorf("correct batch rejected: %v", err)
	}
}

// An open loop far above capacity, against a server with the default
// Config, must reach the degrade path but never overflow the queue: a
// change that makes the server too slow for the reference rate shows in
// the degraded share, while a host stall alone makes no request fail.
func TestOpenLoopAboveCapacityDegradesWithoutShedding(t *testing.T) {
	w, err := findWorkload("cold")
	if err != nil {
		t.Fatal(err)
	}
	r, err := newRig(w, false)
	if err != nil {
		t.Fatal(err)
	}
	st := testStream(t, "cold", 1, phaseID(phaseOpen, 0))
	smp := sampler{key: 1, max: 64}
	const rate = 200000.0
	p := runOpen("overload", r.sender(), st, smp, openOpts{workers: openSenders, rate: rate, dur: 300 * time.Millisecond})
	c := r.srv.Counters()
	if err := r.close(); err != nil {
		t.Fatal(err)
	}
	t.Logf("sent=%d ok=%d degraded=%d server shed=%d degraded=%d",
		p.tally.sent, p.tally.kinds[kindOK], p.tally.degraded, c.Shed, c.Degraded)
	if p.tally.degraded == 0 {
		t.Error("no degraded answers above capacity")
	}
	if f := p.tally.failed(); f != 0 || c.Shed != 0 {
		t.Errorf("%d failed, %d shed: the open loop overflowed the queue", f, c.Shed)
	}
	g, err := hhc.New(w.m)
	if err != nil {
		t.Fatal(err)
	}
	if wrong, first := verify(g, st, p.samples); wrong > 0 {
		t.Errorf("%d wrong answers under overload: %v", wrong, first)
	}
}

// Short runs print exactly the metrics that BENCHMARK.json names for
// their mode, with their units, and verify their answers.
func TestRunsPrintBenchmarkMetrics(t *testing.T) {
	if testing.Short() {
		t.Skip("drives a live server")
	}
	raw, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Skip("BENCHMARK.json not found:", err)
	}
	type named struct{ Name, Unit string }
	var spec struct {
		EndToEnd []named `json:"end_to_end"`
		PerLayer []named `json:"per_layer"`
	}
	if err := json.Unmarshal(raw, &spec); err != nil {
		t.Fatal(err)
	}
	for trace, want := range [][]named{spec.EndToEnd, spec.PerLayer} {
		var out, errOut bytes.Buffer
		args := []string{"--workload", "cold", "--seed", "1", "--seconds", "3", "--trace", strconv.Itoa(trace)}
		if code := run(args, &out, &errOut); code != 0 {
			t.Fatalf("trace %d: exit %d: %s", trace, code, errOut.String())
		}
		lines := strings.Split(strings.TrimSpace(out.String()), "\n")
		var res struct {
			Correct   bool
			Attempted int64
			Failed    int64
			Metrics   map[string]struct {
				Value float64
				Unit  string
			}
		}
		if err := json.Unmarshal([]byte(lines[len(lines)-1]), &res); err != nil {
			t.Fatal(err)
		}
		if !res.Correct || res.Attempted == 0 || res.Failed != 0 {
			t.Errorf("trace %d: correct=%v attempted=%d failed=%d", trace, res.Correct, res.Attempted, res.Failed)
		}
		if len(res.Metrics) != len(want) {
			t.Errorf("trace %d: %d metrics printed, BENCHMARK.json names %d", trace, len(res.Metrics), len(want))
		}
		for _, m := range want {
			if got, ok := res.Metrics[m.Name]; !ok || got.Unit != m.Unit {
				t.Errorf("trace %d: metric %s printed as %+v (present=%v), want unit %s", trace, m.Name, got, ok, m.Unit)
			}
		}
	}
}
