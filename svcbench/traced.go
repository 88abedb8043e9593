package main

import (
	"fmt"
	"runtime"
	"time"

	"repro/internal/cache"
	"repro/internal/core"
	"repro/internal/obs"
	"repro/internal/pathsvc"
	"repro/internal/stats"
)

const (
	// statsPrefix is how many requests of the closed-loop stream the input
	// statistics cover: fixed, so they never depend on throughput.
	statsPrefix = 100000
	// directLookups bounds the single-threaded cache, core and codec
	// timings made on the workload's own inputs.
	directLookups = 2000
)

// usage is a whole-process resource reading.
type usage struct {
	cpu                   time.Duration // user + system
	mallocs, bytes, numGC uint64
	counters              pathsvc.Snapshot
	cache                 stats.CacheSnapshot
	residence             obs.HistogramSnapshot
}

// add accumulates the process-wide part of the difference after − before.
func (u *usage) add(before, after usage) {
	u.cpu += after.cpu - before.cpu
	u.mallocs += after.mallocs - before.mallocs
	u.bytes += after.bytes - before.bytes
	u.numGC += after.numGC - before.numGC
}

func readUsage(r *rig) usage {
	u := usage{cpu: cpuTime()}
	var m runtime.MemStats
	runtime.ReadMemStats(&m)
	u.mallocs, u.bytes, u.numGC = m.Mallocs, m.TotalAlloc, uint64(m.NumGC)
	u.counters = r.srv.Counters()
	u.cache = r.srv.CacheSnapshot()
	u.residence = residenceHist(r).Snapshot()
	return u
}

// residenceHist returns the server's decode→written latency histogram
// (the registry hands back the already registered series).
func residenceHist(r *rig) *obs.Histogram {
	return r.reg.Histogram("pathsvc_request_seconds", "", obs.DefLatencyBuckets)
}

// histP50 is the upper bound of the bucket holding the median of the
// difference of two snapshots of one histogram: bucket resolution only.
func histP50(before, after obs.HistogramSnapshot) float64 {
	total := after.Count - before.Count
	if total <= 0 {
		return 0
	}
	seen := int64(0)
	for i, c := range after.Counts {
		seen += c - before.Counts[i]
		if 2*seen >= total {
			if i < len(after.Bounds) {
				return after.Bounds[i]
			}
			return after.Bounds[len(after.Bounds)-1]
		}
	}
	return 0
}

// traced is the per-layer run. Closed-loop chunks alternate between an
// untraced server (the overhead baseline) and a traced one — metric
// registry on, every request's client round trip and relayed queue/exec
// times recorded — then the traced server takes the reference-rate open
// loop, and the cache, core and wire codec are timed directly on the
// workload's own inputs.
func (b *bench) traced() (*result, error) {
	const tracedRounds = 3
	chunk := b.seconds / 4 / tracedRounds
	workers := conns * closedDepth

	plain, _, err := b.setup("setup-untraced", false)
	if err != nil {
		return nil, err
	}
	r, _, err := b.setup("setup-traced", true)
	if err != nil {
		_ = plain.close() // the run already failed; the shutdown error adds nothing
		return nil, err
	}
	var baseSlices, tracedSlices []float64
	var trips []trip
	var samples []sample
	var sent int64
	var used usage // summed over the traced closed chunks
	first := readUsage(r)
	for k := uint64(0); k < tracedRounds; k++ {
		id := phaseID(phaseClosed, k)
		runtime.GC()
		base := runClosed(fmt.Sprintf("untraced%d", k), plain.sender(), b.stream(id), b.sampler(id),
			closedOpts{workers: workers, dur: chunk})
		b.phases = append(b.phases, base)
		baseSlices = append(baseSlices, base.slices...)

		runtime.GC()
		u0 := readUsage(r)
		c := runClosed(fmt.Sprintf("traced%d", k), r.sender(), b.stream(id), b.sampler(id),
			closedOpts{workers: workers, dur: chunk, traced: true})
		used.add(u0, readUsage(r))
		b.phases = append(b.phases, c)
		tracedSlices = append(tracedSlices, c.slices...)
		trips = append(trips, c.trips...)
		samples = append(samples, c.samples...)
		sent += c.tally.sent
	}
	closedEnd := readUsage(r)
	if err := plain.close(); err != nil {
		return nil, err
	}

	runtime.GC()
	open := runOpen("open", r.sender(), b.stream(phaseID(phaseOpen, 0)), b.sampler(phaseID(phaseOpen, 0)),
		openOpts{workers: openSenders, rate: b.w.refRate, dur: b.seconds / 4})
	last := readUsage(r)
	b.phases = append(b.phases, open)
	if err := r.close(); err != nil {
		return nil, err
	}

	correct := b.verifyPhases()
	t := b.totals()
	res := &result{correct: correct, attempted: t.sent, failed: t.failed()}

	lateP99, _ := pct(sortedCopy(open.late), 99)
	openP50, _ := pct(okLatencies(open.due), 50)
	repeat, distinct := b.stream(phaseID(phaseClosed, 0)).inputStats(statsPrefix)
	res.add("loadgen.open_p50_ms", "ms", ms(openP50))
	res.add("loadgen.late_p99_ms", "ms", ms(lateP99))
	res.add("loadgen.repeat_share", "share", repeat)
	res.add("loadgen.distinct_keys", "count", float64(distinct))

	led := newLedger(trips)
	res.add("pathsvc.rtt_p50_ms", "ms", led.rtt.p50)
	res.add("pathsvc.rtt_p99_ms", "ms", led.rtt.p99)
	res.add("pathsvc.unattributed_p50_ms", "ms", led.unattr.p50)
	res.add("pathsvc.unattributed_p99_ms", "ms", led.unattr.p99)
	res.add("pathsvc.queue_wait_p50_ms", "ms", led.queue.p50)
	res.add("pathsvc.queue_wait_p99_ms", "ms", led.queue.p99)
	res.add("pathsvc.exec_p50_ms", "ms", led.exec.p50)
	res.add("pathsvc.exec_p99_ms", "ms", led.exec.p99)
	res.add("pathsvc.residence_p50_ms", "ms", 1e3*histP50(first.residence, closedEnd.residence))

	c0, c1 := first.counters, last.counters
	coalesced := 0.0
	if n := c1.Requests - c0.Requests; n > 0 {
		coalesced = float64(c1.Coalesced-c0.Coalesced) / float64(n)
	}
	res.add("pathsvc.coalesced_ratio", "share", coalesced)
	res.add("pathsvc.shed", "count", float64(c1.Shed-c0.Shed))
	res.add("pathsvc.deadline", "count", float64(c1.Deadline-c0.Deadline))
	res.add("pathsvc.degraded", "count", float64(c1.Degraded-c0.Degraded))

	codec := codecCost(samples)
	res.add("pathsvc.resp_bytes_mean", "B", codec.bytes)
	res.add("pathsvc.encode_resp_ns", "ns", codec.encodeNS)
	res.add("pathsvc.decode_resp_ns", "ns", codec.decodeNS)

	k0, k1 := first.cache, last.cache
	hits, lookups := k1.Hits-k0.Hits, k1.Lookups()-k0.Lookups()
	hitRatio := 0.0
	if lookups > 0 {
		hitRatio = float64(hits) / float64(lookups)
	}
	res.add("cache.hit_ratio", "share", hitRatio)
	res.add("cache.inflight_waits", "count", float64(k1.InflightWaits-k0.InflightWaits))
	res.add("cache.evictions", "count", float64(k1.Evictions-k0.Evictions))
	hitNS, missNS, err := b.cacheCost()
	if err != nil {
		return nil, err
	}
	res.add("cache.hit_ns", "ns", hitNS)
	res.add("cache.miss_ns", "ns", missNS)
	constructNS, err := b.constructCost()
	if err != nil {
		return nil, err
	}
	res.add("core.construct_ns", "ns", constructNS)

	n := float64(sent)
	res.add("process.cpu_us_per_req", "us", float64(used.cpu)/1e3/n)
	res.add("runtime.allocs_per_req", "count", float64(used.mallocs)/n)
	res.add("runtime.alloc_bytes_per_req", "B", float64(used.bytes)/n)
	res.add("runtime.gc_per_kreq", "count", float64(used.numGC)/(n/1000))
	res.add("trace.overhead_ratio", "ratio", median(baseSlices)/median(tracedSlices))

	b.printLedger(led, len(trips))
	return res, nil
}

// spread is a p50/p99/mean triple in milliseconds.
type spread struct{ p50, p99, mean float64 }

func spreadOf(xs []int64) spread {
	if len(xs) == 0 {
		return spread{}
	}
	s := sortedCopy(xs)
	p50, _ := pct(s, 50)
	p99, _ := pct(s, 99)
	sum := 0.0
	for _, x := range s {
		sum += float64(x)
	}
	return spread{ms(p50), ms(p99), sum / float64(len(s)) / 1e6}
}

// ledger splits the client-observed round trip of each traced request at
// the boundaries the server relays: queue wait and execution. The rest —
// client encode/write, loopback, server read/decode/admission, server
// encode/write, client demux/wake — is unattributed.
type ledger struct{ rtt, queue, exec, unattr spread }

func newLedger(trips []trip) ledger {
	var rtt, queue, exec, unattr []int64
	queueSum := 0.0
	for _, t := range trips {
		rtt = append(rtt, t.rtt)
		exec = append(exec, t.exec)
		if !t.coalesced {
			queue = append(queue, t.queue)
		}
		queueSum += float64(t.queue)
		unattr = append(unattr, t.rtt-t.queue-t.exec)
	}
	l := ledger{spreadOf(rtt), spreadOf(queue), spreadOf(exec), spreadOf(unattr)}
	if len(trips) > 0 {
		// Percentiles cover non-coalesced answers; the mean covers all, so
		// the mean column adds up to the round trip.
		l.queue.mean = queueSum / float64(len(trips)) / 1e6
	}
	return l
}

func (b *bench) printLedger(l ledger, n int) {
	b.printf("layer ledger: traced closed loop, %d requests; the mean column sums to the round trip\n", n)
	b.printf("  %-34s %9s %9s %9s %7s\n", "layer", "p50_ms", "p99_ms", "mean_ms", "share")
	row := func(name string, s spread) {
		share := 0.0
		if l.rtt.mean > 0 {
			share = s.mean / l.rtt.mean
		}
		b.printf("  %-34s %9.4f %9.4f %9.4f %6.1f%%\n", name, s.p50, s.p99, s.mean, 100*share)
	}
	row("server queue wait (not coalesced)", l.queue)
	row("server exec", l.exec)
	row("unattributed", l.unattr)
	row("round trip (client DoV2)", l.rtt)
}

// codec is the v2 response frame cost on the workload's own answers.
type codec struct{ bytes, encodeNS, decodeNS float64 }

func codecCost(samples []sample) codec {
	if len(samples) == 0 {
		return codec{}
	}
	const reps = 16
	var buf []byte
	var dec pathsvc.ResponseV2
	var enc, decs []float64
	total := 0
	for i := range samples {
		resp := &samples[i].resp
		t0 := time.Now()
		for k := 0; k < reps; k++ {
			buf = pathsvc.AppendResponseV2(buf[:0], resp)
		}
		enc = append(enc, float64(time.Since(t0))/reps)
		total += len(buf)
		t0 = time.Now()
		for k := 0; k < reps; k++ {
			if err := pathsvc.DecodeResponseV2(buf, &dec); err != nil {
				break
			}
		}
		decs = append(decs, float64(time.Since(t0))/reps)
	}
	return codec{float64(total) / float64(len(samples)), median(enc), median(decs)}
}

// lookupPairs lists the pair lookups of the closed-loop stream's first
// requests, batches contributing each of their pairs.
func (b *bench) lookupPairs(n int) []pathsvc.NodePair {
	st := b.stream(phaseID(phaseClosed, 0))
	var req pathsvc.RequestV2
	var out []pathsvc.NodePair
	for i := uint64(0); len(out) < n; i++ {
		st.at(i, &req)
		if req.Op == pathsvc.OpCodeBatch {
			out = append(out, req.Pairs...)
		} else {
			out = append(out, pathsvc.NodePair{U: req.U, V: req.V})
		}
	}
	return out[:n]
}

// cacheCost replays the workload's lookups through a fresh cache with the
// server's default options, single-threaded, timing hits and misses
// separately. Each lookup is followed by a repeat, which always hits, so
// every workload yields hit samples.
func (b *bench) cacheCost() (hitNS, missNS float64, err error) {
	c, err := cache.New(b.g, cache.Options{})
	if err != nil {
		return 0, 0, err
	}
	var hit, miss []float64
	for _, p := range b.lookupPairs(directLookups) {
		for rep := 0; rep < 2; rep++ {
			before := c.Snapshot().Misses
			t0 := time.Now()
			if _, err := c.Paths(p.U, p.V, core.Options{}); err != nil {
				return 0, 0, fmt.Errorf("cache: %w", err)
			}
			d := float64(time.Since(t0))
			if c.Snapshot().Misses > before {
				miss = append(miss, d)
			} else {
				hit = append(hit, d)
			}
		}
	}
	return median(hit), median(miss), nil
}

// constructCost times core.DisjointPathsOpt on the workload's distinct
// canonical pairs.
func (b *bench) constructCost() (float64, error) {
	seen := map[canonKey]bool{}
	var ns []float64
	for _, p := range b.lookupPairs(directLookups) {
		k := keyOf(p.U, p.V)
		if seen[k] {
			continue
		}
		seen[k] = true
		t0 := time.Now()
		if _, err := core.DisjointPathsOpt(b.g, p.U, p.V, core.Options{}); err != nil {
			return 0, fmt.Errorf("construct: %w", err)
		}
		ns = append(ns, float64(time.Since(t0)))
	}
	return median(ns), nil
}
