package pathsvc

import (
	"errors"
	"strings"
	"sync"
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/hhc"
)

// parityView is the protocol-neutral reading of one answer: everything a
// v1 and a v2 client must agree on when they ask the same question.
type parityView struct {
	code     string
	width    int
	full     int
	degraded bool
	paths    [][]string
	items    int
	itemErrs []bool
	retry    time.Duration
	msg      string
}

// viewV1 reads a v1 answer (an OK response, or a ServerError carrying
// one).
func viewV1(resp *Response, err error) (parityView, error) {
	var se *ServerError
	if err != nil && !errors.As(err, &se) {
		return parityView{}, err
	}
	v := parityView{code: resp.Code, width: resp.Width, full: resp.Full,
		degraded: resp.Degraded, paths: resp.Paths, items: len(resp.Results),
		retry: time.Duration(resp.RetryAfterMS) * time.Millisecond, msg: resp.Err}
	for _, it := range resp.Results {
		v.itemErrs = append(v.itemErrs, it.Err != "")
	}
	return v, nil
}

// viewV2 reads a v2 answer, formatting its nodes the way v1 spells them.
func viewV2(resp *ResponseV2, err error) (parityView, error) {
	var se *ServerError
	if err != nil && !errors.As(err, &se) {
		return parityView{}, err
	}
	v := parityView{code: resp.CodeString(), width: resp.Width, full: resp.Full,
		degraded: resp.Degraded, items: len(resp.Results),
		retry: time.Duration(resp.RetryAfterNS), msg: resp.Err}
	for _, p := range resp.Paths {
		s := make([]string, len(p))
		for i, n := range p {
			s[i] = hhc.FormatNodeWire(n)
		}
		v.paths = append(v.paths, s)
	}
	for _, it := range resp.Results {
		v.itemErrs = append(v.itemErrs, it.Err != "")
	}
	return v, nil
}

// v1Form spells a node-native request as the equivalent v1 JSON request.
func v1Form(r *RequestV2) Request {
	op, _ := opNameOf(r.Op)
	q := Request{Op: op, MaxPaths: r.MaxPaths, TimeoutMS: wireTimeoutMS(time.Duration(r.TimeoutNS))}
	switch r.Op {
	case OpCodePaths, OpCodeRoute:
		q.U, q.V = hhc.FormatNodeWire(r.U), hhc.FormatNodeWire(r.V)
		for _, f := range r.Faults {
			q.Faults = append(q.Faults, hhc.FormatNodeWire(f))
		}
	case OpCodeBatch:
		for _, p := range r.Pairs {
			q.Pairs = append(q.Pairs, [2]string{hhc.FormatNodeWire(p.U), hhc.FormatNodeWire(p.V)})
		}
	}
	return q
}

// holdWorkers stalls every worker of srv until the returned release runs,
// and occupies the pool and the first queued slots with n background
// queries on distinct pairs (one connection each).
func holdWorkers(t *testing.T, srv *Server, addr string, n int) (release func()) {
	t.Helper()
	gate := make(chan struct{})
	srv.stallForTest = func() { <-gate }
	var wg sync.WaitGroup
	for i := 0; i < n; i++ {
		c := dial(t, addr)
		u, v := hhc.FormatNodeWire(hhc.Node{X: uint64(0x10 + i), Y: 1}), hhc.FormatNodeWire(hhc.Node{X: uint64(0xe0 + i), Y: 6})
		wg.Add(1)
		go func() {
			defer wg.Done()
			_, _ = c.Paths(u, v, 0, time.Minute)
		}()
	}
	var once sync.Once
	release = func() {
		once.Do(func() {
			close(gate)
			wg.Wait()
		})
	}
	t.Cleanup(release)
	return release
}

// TestProtocolParity sends each question over v1 and over v2 to the same
// server and checks that both wires give the same answer: code, width,
// full and degraded flags, the paths themselves, the batch shape with its
// per-item error presence, and the retry hint. Known, intended
// differences are not compared:
//   - error text for bad addresses: v1 reports hhc.ParseNode's message for
//     the client's string, v2 a range error for the binary node;
//   - v1 batch items echo the client's address strings, v2 items the nodes;
//   - unknown ops exist only on v1 (a v2 op byte outside the table fails
//     at decode), so they are covered by TestServeBasicOps instead;
//   - the "at pair i of n" index of an oversize-batch refusal is counted
//     in each recipient's own encoding.
func TestProtocolParity(t *testing.T) {
	g, _ := hhc.New(3)
	u, v := hhc.Node{X: 0x0, Y: 0}, hhc.Node{X: 0xff, Y: 7}
	container, err := core.DisjointPaths(g, u, v)
	if err != nil {
		t.Fatal(err)
	}
	// One interior node of every container path: the route has no way
	// around them.
	var blockAll []hhc.Node
	for _, p := range container {
		blockAll = append(blockAll, p[1])
	}
	outOfRange := hhc.Node{X: 1 << 40, Y: 0}
	bigBatch := make([]NodePair, 16)
	for i := range bigBatch {
		bigBatch[i] = NodePair{U: u, V: v}
	}

	cases := []struct {
		name string
		cfg  Config
		req  RequestV2
		// hold, when set, puts the server into the state the probe needs
		// and returns the release; settle then waits (after both probes
		// are sent) until releasing produces the intended answer.
		hold   func(t *testing.T, srv *Server, addr string) func()
		settle func(t *testing.T, srv *Server)
		// want is the expected code; msg a substring both texts contain.
		want string
		msg  string
	}{
		{name: "paths", req: RequestV2{Op: OpCodePaths, U: u, V: v}},
		{name: "paths-max", req: RequestV2{Op: OpCodePaths, U: u, V: v, MaxPaths: 2}},
		{name: "route-faults", req: RequestV2{Op: OpCodeRoute, U: u, V: v, Faults: blockAll[:1]}},
		{name: "route-unroutable", req: RequestV2{Op: OpCodeRoute, U: u, V: v, Faults: blockAll},
			want: CodeUnroutable, msg: core.ErrAllPathsFaulty.Error()},
		{name: "route-faulty-source", req: RequestV2{Op: OpCodeRoute, U: u, V: v, Faults: []hhc.Node{u}},
			want: CodeBadRequest, msg: "source 0x0:0 is faulty"},
		{name: "batch-out-of-range-pair", req: RequestV2{Op: OpCodeBatch,
			Pairs: []NodePair{{U: u, V: v}, {U: outOfRange, V: v}, {U: hhc.Node{X: 1}, V: hhc.Node{X: 1, Y: 5}}}}},
		{name: "batch-oversize", cfg: Config{M: 3, MaxFrame: 2048},
			req: RequestV2{Op: OpCodeBatch, Pairs: bigBatch}, want: CodeBadRequest, msg: "split the batch"},
		{name: "node-out-of-range", req: RequestV2{Op: OpCodePaths, U: outOfRange, V: v},
			want: CodeBadRequest, msg: "out of range for m=3"},
		{name: "deadline", cfg: Config{M: 3, Workers: 1, QueueDepth: 8},
			req: RequestV2{Op: OpCodePaths, U: u, V: v, TimeoutNS: int64(10 * time.Millisecond)},
			hold: func(t *testing.T, srv *Server, addr string) func() {
				release := holdWorkers(t, srv, addr, 1)
				waitFor(t, "worker occupied", func() bool { return srv.activeWorkers.Load() == 1 })
				return release
			},
			settle: func(t *testing.T, srv *Server) {
				waitFor(t, "both probes waiting", func() bool {
					cs := srv.Counters()
					return cs.Admitted+cs.Coalesced == 3
				})
				time.Sleep(30 * time.Millisecond) // past the probes' 10ms deadline
			},
			want: CodeDeadline, msg: ErrDeadlineExceeded.Error()},
		{name: "degraded", cfg: Config{M: 3, Workers: 1, QueueDepth: 8, ShedThreshold: 0.25, DegradeWidth: 2},
			req: RequestV2{Op: OpCodePaths, U: u, V: v, TimeoutNS: int64(time.Minute)},
			hold: func(t *testing.T, srv *Server, addr string) func() {
				release := holdWorkers(t, srv, addr, 3)
				waitFor(t, "queue past shed threshold", func() bool { return len(srv.queue) >= 2 })
				return release
			},
			settle: func(t *testing.T, srv *Server) {
				waitFor(t, "both probes admitted", func() bool {
					cs := srv.Counters()
					return cs.Admitted+cs.Coalesced == 5
				})
			}},
		{name: "overload", cfg: Config{M: 3, Workers: 1, QueueDepth: 1, RetryAfter: 75 * time.Millisecond},
			req: RequestV2{Op: OpCodePaths, U: u, V: v},
			hold: func(t *testing.T, srv *Server, addr string) func() {
				release := holdWorkers(t, srv, addr, 2)
				waitFor(t, "worker busy and queue full", func() bool {
					return srv.activeWorkers.Load() == 1 && len(srv.queue) == 1
				})
				return release
			},
			settle: func(t *testing.T, srv *Server) {
				waitFor(t, "both probes refused", func() bool {
					cs := srv.Counters()
					return cs.Shed+cs.Coalesced == 2
				})
			},
			want: CodeOverload, msg: ErrOverload.Error()},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			cfg := tc.cfg
			if cfg.M == 0 {
				cfg.M = 3
			}
			srv, addr := startServer(t, cfg)
			release := func() {}
			if tc.hold != nil {
				release = tc.hold(t, srv, addr)
			}
			c1, err := DialWith(addr, DialOptions{Proto: ProtocolVersion})
			if err != nil {
				t.Fatal(err)
			}
			defer c1.Close()
			c2, err := DialWith(addr, DialOptions{Proto: ProtocolV2})
			if err != nil {
				t.Fatal(err)
			}
			defer c2.Close()

			var views [2]parityView
			var errs [2]error
			var wg sync.WaitGroup
			wg.Add(2)
			go func() {
				defer wg.Done()
				views[0], errs[0] = viewV1(c1.Do(v1Form(&tc.req)))
			}()
			go func() {
				defer wg.Done()
				req := tc.req
				var resp ResponseV2
				views[1], errs[1] = viewV2(&resp, c2.DoV2(&req, &resp))
			}()
			if tc.settle != nil {
				tc.settle(t, srv)
			}
			release()
			wg.Wait()
			for i, proto := range []string{"v1", "v2"} {
				if errs[i] != nil {
					t.Fatalf("%s: transport error %v", proto, errs[i])
				}
				if views[i].code != tc.want {
					t.Errorf("%s: code %q (%s), want %q", proto, views[i].code, views[i].msg, tc.want)
				}
				if !strings.Contains(views[i].msg, tc.msg) {
					t.Errorf("%s: message %q lacks %q", proto, views[i].msg, tc.msg)
				}
			}
			a, b := views[0], views[1]
			a.msg, b.msg = "", ""
			if !parityEqual(a, b) {
				t.Errorf("answers differ:\n v1 %+v\n v2 %+v", a, b)
			}
		})
	}
}

// parityEqual compares two neutral views field by field.
func parityEqual(a, b parityView) bool {
	if a.code != b.code || a.width != b.width || a.full != b.full || a.degraded != b.degraded ||
		a.items != b.items || a.retry != b.retry || a.msg != b.msg ||
		len(a.paths) != len(b.paths) || len(a.itemErrs) != len(b.itemErrs) {
		return false
	}
	for i := range a.paths {
		if strings.Join(a.paths[i], " ") != strings.Join(b.paths[i], " ") {
			return false
		}
	}
	for i := range a.itemErrs {
		if a.itemErrs[i] != b.itemErrs[i] {
			return false
		}
	}
	return true
}
