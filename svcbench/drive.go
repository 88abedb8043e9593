package main

import (
	"context"
	"errors"
	"fmt"
	"net"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/hhc"
	"repro/internal/obs"
	"repro/internal/pathsvc"
)

// conns is the number of client connections: at most nproc on the
// reference host (2), fixed so every host offers the same load shape.
// closedDepth is the closed loop's requests in flight per connection.
const (
	conns       = 2
	closedDepth = 16
)

// rig is one in-process server on loopback TCP with its client connections.
type rig struct {
	srv     *pathsvc.Server
	reg     *obs.Registry // nil unless traced
	served  chan error
	clients []*pathsvc.Client
}

// newRig starts a server for w (with a metric registry when traced) and
// dials conns wire-v2 connections to it.
func newRig(w *workload, traced bool) (*rig, error) {
	cfg := pathsvc.Config{M: w.m}
	r := &rig{served: make(chan error, 1)}
	if traced {
		r.reg = obs.NewRegistry()
		cfg.Reg = r.reg
	}
	srv, err := pathsvc.New(cfg)
	if err != nil {
		return nil, err
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, fmt.Errorf("listen: %w", err)
	}
	r.srv = srv
	go func() { r.served <- srv.Serve(ln) }()
	for i := 0; i < conns; i++ {
		c, err := pathsvc.DialWith(ln.Addr().String(), pathsvc.DialOptions{Proto: pathsvc.ProtocolV2})
		if err != nil {
			_ = r.close()
			return nil, err
		}
		r.clients = append(r.clients, c)
	}
	return r, nil
}

// close hangs up the clients and drains the server; it returns once
// Serve has returned.
func (r *rig) close() error {
	for _, c := range r.clients {
		_ = c.Close()
	}
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	if err := r.srv.Shutdown(ctx); err != nil {
		return fmt.Errorf("shutdown: %w", err)
	}
	return <-r.served
}

// kind classifies one request's outcome.
type kind int

const (
	kindOK kind = iota
	kindOverload
	kindDeadline
	kindServerError
	kindProtocol
	kindTimeout
	kindWrong // set by verification, never by classify
	numKinds
)

var kindNames = [numKinds]string{"ok", "overload", "deadline", "server_error", "protocol_error", "client_timeout", "wrong_answer"}

func classify(err error, resp *pathsvc.ResponseV2) kind {
	var se *pathsvc.ServerError
	switch {
	case err == nil:
		return kindOK
	case errors.As(err, &se):
		switch resp.Code {
		case pathsvc.StatusOverload:
			return kindOverload
		case pathsvc.StatusDeadline:
			return kindDeadline
		}
		return kindServerError
	case errors.Is(err, pathsvc.ErrClientTimeout):
		return kindTimeout
	}
	return kindProtocol
}

// tally counts one phase's outcomes.
type tally struct {
	sent     int64
	kinds    [numKinds]int64
	degraded int64
}

func (t *tally) add(o *tally) {
	t.sent += o.sent
	for i := range t.kinds {
		t.kinds[i] += o.kinds[i]
	}
	t.degraded += o.degraded
}

func (t *tally) failed() int64 { return t.sent - t.kinds[kindOK] + t.kinds[kindWrong] }

// sample is one answer kept for verification after the phase.
type sample struct {
	idx  uint64
	resp pathsvc.ResponseV2
}

// sampleEvery is the share of answers kept for verification: one in this
// many, up to max per sender.
const sampleEvery = 256

// sampler picks a seeded subset of request indices to keep. The choice is
// a function of (seed, phase, index), so it does not depend on timing. The
// zero sampler keeps nothing.
type sampler struct {
	key uint64
	max int
}

func (s sampler) want(idx uint64, have int) bool {
	return have < s.max && mix(s.key, idx)%sampleEvery == 0
}

func cloneResp(r *pathsvc.ResponseV2) pathsvc.ResponseV2 {
	out := *r
	out.Paths = clonePaths(r.Paths)
	out.Results = nil
	for _, it := range r.Results {
		it.Paths = clonePaths(it.Paths)
		out.Results = append(out.Results, it)
	}
	return out
}

func clonePaths(ps [][]hhc.Node) [][]hhc.Node {
	if ps == nil {
		return nil
	}
	out := make([][]hhc.Node, len(ps))
	for i, p := range ps {
		out[i] = append([]hhc.Node(nil), p...)
	}
	return out
}

// trip is one request's timing as the traced closed loop records it.
type trip struct {
	rtt, queue, exec int64 // ns
	coalesced        bool
}

// sender is one worker's view of the system under test; tests substitute
// a fake server.
type sender func(worker int, idx uint64, req *pathsvc.RequestV2, resp *pathsvc.ResponseV2) error

// rigSender sends over the rig's connections, worker w on connection
// w % conns.
func (r *rig) sender() sender {
	return func(w int, _ uint64, req *pathsvc.RequestV2, resp *pathsvc.ResponseV2) error {
		return r.clients[w%len(r.clients)].DoV2(req, resp)
	}
}

// workerState is one sending goroutine's private bookkeeping, merged
// after the phase so the hot loop shares nothing but the index counter.
type workerState struct {
	req     pathsvc.RequestV2
	resp    pathsvc.ResponseV2
	tally   tally
	samples []sample
	trips   []trip
	due     []dueSample // open loop: one per scheduled request
	late    []int64     // open loop: ns from due to send
}

// record classifies one finished request and keeps it if sampled.
func (ws *workerState) record(err error, idx uint64, smp sampler) kind {
	k := classify(err, &ws.resp)
	ws.tally.sent++
	ws.tally.kinds[k]++
	if k == kindOK {
		if ws.resp.Degraded {
			ws.tally.degraded++
		}
		if smp.want(idx, len(ws.samples)) {
			ws.samples = append(ws.samples, sample{idx: idx, resp: cloneResp(&ws.resp)})
		}
	}
	return k
}

// phase is the merged result of one load phase.
type phase struct {
	name    string
	id      uint64 // stream the phase replayed: phaseID(kind, n)
	tally   tally
	samples []sample
	trips   []trip
	due     []dueSample
	late    []int64
	elapsed time.Duration
	slices  []float64 // closed loop: completions per second, per slice
}

func merge(name string, id uint64, ws []*workerState) *phase {
	p := &phase{name: name, id: id}
	for _, w := range ws {
		p.tally.add(&w.tally)
		p.samples = append(p.samples, w.samples...)
		p.trips = append(p.trips, w.trips...)
		p.due = append(p.due, w.due...)
		p.late = append(p.late, w.late...)
	}
	return p
}

// closedOpts configures a closed-loop phase: it runs until dur elapses or
// limit requests have been claimed, whichever comes first (0 = unset).
type closedOpts struct {
	workers int
	dur     time.Duration
	limit   uint64
	traced  bool // record per-request trips
}

// runClosed keeps o.workers requests in flight: each worker sends its next
// request as soon as the previous one completes.
func runClosed(name string, send sender, st *stream, smp sampler, o closedOpts) *phase {
	var next atomic.Uint64
	var done atomic.Int64
	var stop atomic.Bool
	ws := make([]*workerState, o.workers)
	var wg sync.WaitGroup
	start := time.Now()
	for w := range ws {
		s := &workerState{}
		if o.traced {
			s.trips = make([]trip, 0, 1<<14)
		}
		ws[w] = s
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for !stop.Load() {
				idx := next.Add(1) - 1
				if o.limit > 0 && idx >= o.limit {
					return
				}
				st.at(idx, &s.req)
				var t0 time.Time
				if o.traced {
					t0 = time.Now()
				}
				err := send(w, idx, &s.req, &s.resp)
				if o.traced {
					rtt := time.Since(t0)
					if err == nil {
						s.trips = append(s.trips, trip{rtt: int64(rtt), queue: s.resp.QueueNS,
							exec: s.resp.ExecNS, coalesced: s.resp.Coalesced})
					}
				}
				s.record(err, idx, smp)
				done.Add(1)
			}
		}(w)
	}
	// Throughput per slice; a slice cut short by the phase end counts
	// only if it lasted at least half a slice.
	var slices []float64
	if o.dur > 0 {
		end := start.Add(o.dur)
		prevT, prevN := start, int64(0)
		for now := start; now.Before(end); {
			time.Sleep(min(slice, time.Until(end)))
			now = time.Now()
			n := done.Load()
			if now.Sub(prevT) >= slice/2 {
				slices = append(slices, float64(n-prevN)/now.Sub(prevT).Seconds())
			}
			prevT, prevN = now, n
		}
		stop.Store(true)
	}
	wg.Wait()
	p := merge(name, st.id, ws)
	p.elapsed = time.Since(start)
	p.slices = slices
	return p
}

// openOpts configures an open-loop phase. Every scheduled request is sent,
// however late.
type openOpts struct {
	workers int           // senders; each has at most one request in flight
	rate    float64       // req/s
	dur     time.Duration // schedule length
}

// dueAt returns request i's due offset from the schedule start: evenly
// spaced arrivals at the given rate.
func dueAt(i int64, rate float64) time.Duration {
	return time.Duration(float64(i) / rate * float64(time.Second))
}

// runOpen sends requests on a fixed schedule regardless of completions
// and times each from when it was due, so a stall is charged to every
// request scheduled behind it. A free sender claims the next request in
// schedule order and sleeps until it is due. With many senders, claims
// run several milliseconds ahead of the schedule, so each sleep is longer
// than the Go timer's 1 ms resolution on an idle process and the sender
// wakes close to the due time; how late it actually sent is recorded.
func runOpen(name string, send sender, st *stream, smp sampler, o openOpts) *phase {
	total := int64(o.rate * o.dur.Seconds())
	var next atomic.Int64
	ws := make([]*workerState, o.workers)
	var wg sync.WaitGroup
	start := time.Now().Add(10 * time.Millisecond)
	for w := range ws {
		s := &workerState{
			due:  make([]dueSample, 0, total/int64(o.workers)+64),
			late: make([]int64, 0, total/int64(o.workers)+64),
		}
		ws[w] = s
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for {
				i := next.Add(1) - 1
				if i >= total {
					return
				}
				due := start.Add(dueAt(i, o.rate))
				if d := time.Until(due); d > 0 {
					time.Sleep(d)
				}
				s.late = append(s.late, int64(time.Since(due)))
				st.at(uint64(i), &s.req)
				err := send(w, uint64(i), &s.req, &s.resp)
				lat := int64(miss)
				if s.record(err, uint64(i), smp) == kindOK {
					lat = int64(time.Since(due))
				}
				s.due = append(s.due, dueSample{i, lat})
			}
		}(w)
	}
	wg.Wait()
	p := merge(name, st.id, ws)
	p.elapsed = time.Since(start)
	return p
}
