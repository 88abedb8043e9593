package main

import (
	"fmt"
	"runtime"
	"syscall"
	"time"

	"repro/internal/pathsvc"
)

const (
	slice = 250 * time.Millisecond // closed-loop throughput slice

	// openSenders bounds what the open loop can have outstanding, one
	// request per sender. It equals the server's default queue depth: a
	// server too slow for the reference rate fills the queue past its shed
	// threshold, so degraded answers are reachable and show in the
	// degraded share, but the queue never overflows, so a host stall alone
	// makes no request fail.
	openSenders = pathsvc.DefaultQueueDepth
)

// setup runs pathsvc.New + listen + dials + warm-up on a fresh server,
// records the warm-up as a phase, and returns the process CPU time the
// set-up took, client and server together.
func (b *bench) setup(name string, traced bool) (*rig, time.Duration, error) {
	runtime.GC()
	t0, cpu0 := time.Now(), cpuTime()
	r, err := newRig(b.w, traced)
	if err != nil {
		return nil, 0, err
	}
	p := runClosed(name, r.sender(), b.stream(phaseID(phaseWarm, 0)), sampler{},
		closedOpts{workers: conns * closedDepth, limit: uint64(b.w.warm)})
	p.elapsed = time.Since(t0)
	b.phases = append(b.phases, p)
	return r, cpuTime() - cpu0, nil
}

// rounds is how many times a run sets up a fresh server and drives it
// through a closed-loop chunk and an open-loop chunk. Spreading every
// phase over the run, and taking medians over rounds, keeps a CPU-steal
// episode on a shared host from setting a figure alone.
const rounds = 10

// cpuTime is the process's user + system CPU time. The kernel leaves out
// time the hypervisor gave to other guests, so set-up time and CPU per
// request measured with it do not rise when other tenants of a shared
// host take its CPUs; a wall-clock set-up time rose by 60% in such a
// period.
func cpuTime() time.Duration {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}

// endToEnd is the untraced run: rounds of a timed set-up on a fresh
// server, a closed-loop chunk and a reference-rate open-loop chunk.
func (b *bench) endToEnd() (*result, error) {
	// Of the measured seconds: two fifths in closed-loop chunks, three
	// fifths in open-loop chunks.
	closedChunk, openChunk := b.seconds*2/5/rounds, b.seconds*3/5/rounds
	var setups, cpuPerReq, slices []float64
	var openLat, openLate []int64
	for k := uint64(0); k < rounds; k++ {
		r, setupCPU, err := b.setup(fmt.Sprintf("setup%d", k), false)
		if err != nil {
			return nil, err
		}
		setups = append(setups, setupCPU.Seconds())
		send := r.sender()

		runtime.GC()
		cpu0 := cpuTime()
		c := runClosed(fmt.Sprintf("closed%d", k), send, b.stream(phaseID(phaseClosed, k)),
			b.sampler(phaseID(phaseClosed, k)), closedOpts{workers: conns * closedDepth, dur: closedChunk})
		used := cpuTime() - cpu0
		b.phases = append(b.phases, c)
		slices = append(slices, c.slices...)
		if done := c.tally.sent; done > 0 {
			cpuPerReq = append(cpuPerReq, float64(used.Microseconds())/float64(done))
		}

		runtime.GC()
		o := runOpen(fmt.Sprintf("open%d", k), send, b.stream(phaseID(phaseOpen, k)),
			b.sampler(phaseID(phaseOpen, k)), openOpts{workers: openSenders, rate: b.w.refRate, dur: openChunk})
		b.phases = append(b.phases, o)
		openLat, openLate = append(openLat, okLatencies(o.due)...), append(openLate, o.late...)
		o.due, o.late = nil, nil
		if err := r.close(); err != nil {
			return nil, err
		}
	}
	b.printOpen(sortedCopy(openLat), sortedCopy(openLate))
	b.printf("closed loop: median %.0f req/s over %d slices of %v\n", median(slices), len(slices), slice)
	mem := peakRSSMB()

	correct := b.verifyPhases()
	t := b.totals()
	failRatio := float64(t.failed()) / float64(t.sent)
	degradedRatio := 0.0
	if ok := t.kinds[kindOK]; ok > 0 {
		degradedRatio = float64(t.degraded) / float64(ok)
	}
	b.printf("fail_ratio %.6g share; degraded_ratio %.6g share (the JSON carries their complements)\n",
		failRatio, degradedRatio)

	res := &result{correct: correct, attempted: t.sent, failed: t.failed()}
	res.add("setup_s", "s", median(setups))
	res.add("cpu_us_per_req", "us", median(cpuPerReq))
	res.add("success_ratio", "share", 1-failRatio)
	res.add("full_width_ratio", "share", 1-degradedRatio)
	res.add("mem_peak_mb", "MB", mem)
	return res, nil
}

// printOpen shows the latency and sender lateness of the reference-rate
// open loop, pooled over the run. They are printed, not gated: on a shared
// 2-vCPU host they are set mostly by how soon the hypervisor runs an idle
// vCPU again, which moved the median by up to 55% between runs of one
// commit minutes apart.
func (b *bench) printOpen(lat, late []int64) {
	q := func(xs []int64, p float64) float64 { v, _ := pct(xs, p); return ms(v) }
	b.printf("open loop at %.0f req/s: %d answers; latency from due p50=%.3f p90=%.3f p99=%.3f max=%.3f ms; "+
		"sender late p50=%.3f p99=%.3f ms\n", b.w.refRate, len(lat),
		q(lat, 50), q(lat, 90), q(lat, 99), q(lat, 100), q(late, 50), q(late, 99))
}

// peakRSSMB reads the process's peak resident set — client and server
// together, since they share the process. (Linux reports ru_maxrss in KiB.)
func peakRSSMB() float64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return float64(ru.Maxrss) / 1024
}
