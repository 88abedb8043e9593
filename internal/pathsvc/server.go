package pathsvc

import (
	"bufio"
	"context"
	"errors"
	"fmt"
	"net"
	"runtime"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/cache"
	"repro/internal/core"
	"repro/internal/hhc"
	"repro/internal/obs"
	"repro/internal/stats"
)

// Typed request-outcome errors. The server renders them into response
// codes; the client maps the codes back onto the same sentinels, so
// errors.Is works identically on both sides of the wire.
var (
	// ErrDeadlineExceeded reports that a request's deadline expired while
	// it waited in the queue or executed.
	ErrDeadlineExceeded = errors.New("pathsvc: request deadline exceeded")
	// ErrOverload reports an admission rejection: the work queue was full.
	ErrOverload = errors.New("pathsvc: server overloaded, queue full")
	// ErrShutdown reports that the server is draining and refused the request.
	ErrShutdown = errors.New("pathsvc: server shutting down")
)

// Admission selects what happens to a request that arrives while the work
// queue is full.
type Admission int

const (
	// AdmitReject answers CodeOverload immediately with a retry-after hint
	// (shed load early, keep latency bounded for admitted work).
	AdmitReject Admission = iota
	// AdmitBlock parks the connection's reader until queue space frees up
	// (per-connection backpressure instead of shedding).
	AdmitBlock
)

// String names the policy.
func (a Admission) String() string {
	switch a {
	case AdmitReject:
		return "reject"
	case AdmitBlock:
		return "block"
	default:
		return fmt.Sprintf("Admission(%d)", int(a))
	}
}

// ParseAdmission parses the CLI spelling of an admission policy.
func ParseAdmission(s string) (Admission, error) {
	switch s {
	case "reject", "":
		return AdmitReject, nil
	case "block":
		return AdmitBlock, nil
	default:
		return 0, fmt.Errorf("pathsvc: unknown admission policy %q (want reject|block)", s)
	}
}

// Forwarder hooks a cluster layer into the server. The server consults it
// once per path/route query: non-owned queries that have not been forwarded
// already (the wire's forwarded bit — the hop guard) are relayed to their
// owning peer instead of executing locally. implementations live above this
// package (internal/cluster); the server only needs ownership answers and
// a way to relay.
type Forwarder interface {
	// Owns reports whether this process owns the canonicalized (u, v) key.
	Owns(u, v hhc.Node) bool
	// Forward relays req to the owning peer and decodes its answer into
	// resp, returning the owner's address so the requester's trace can
	// attribute the hop. A non-nil error is either transport-level (the
	// peer is unreachable or the stream broke — the server falls back to a
	// local, correctness-preserving answer) or a *ServerError carrying the
	// owner's verdict; peer names the attempted owner in both cases when
	// known.
	Forward(req *RequestV2, resp *ResponseV2) (peer string, err error)
}

// Config tunes a Server. The zero value of every field selects a sensible
// default; only M is required.
type Config struct {
	// M is the served topology's son-cube dimension.
	M int
	// Workers is the construction worker-pool size (0 = GOMAXPROCS).
	Workers int
	// QueueDepth bounds the admission queue (0 = DefaultQueueDepth).
	QueueDepth int
	// Admission selects the full-queue behavior (default AdmitReject).
	Admission Admission
	// RetryAfter is the back-off hint sent with CodeOverload
	// (0 = DefaultRetryAfter).
	RetryAfter time.Duration
	// DefaultTimeout caps requests that carry no deadline of their own
	// (0 = DefaultRequestTimeout).
	DefaultTimeout time.Duration
	// MaxFrame bounds wire frames (0 = DefaultMaxFrame).
	MaxFrame int
	// ShedThreshold is the queue-fill fraction beyond which OpPaths
	// responses degrade to DegradeWidth paths (0 = DefaultShedThreshold;
	// must be in (0, 1]).
	ShedThreshold float64
	// DegradeWidth is the container width served while degraded
	// (0 = DefaultDegradeWidth).
	DegradeWidth int
	// MaxBatch bounds OpBatch pair counts (0 = DefaultMaxBatch).
	MaxBatch int
	// Cache tunes the memoizing container cache backing the service.
	Cache cache.Options
	// Reg, when non-nil, receives the pathsvc_* metric set (plus the
	// cache_* set of the backing cache).
	Reg *obs.Registry
	// Logger, when non-nil, receives one structured line per connection
	// event and per non-OK response. Nil disables logging at zero cost.
	Logger *obs.Logger
	// Requests, when non-nil, records a span tree per request (admission,
	// queue wait, execution, encode) into the flight recorder behind
	// /debug/requests. Nil disables request tracing at zero cost.
	Requests *obs.RequestTracer
	// Router, when non-nil, shards the query space across cluster peers:
	// path/route queries whose canonical key this process does not own are
	// relayed to the owner (at most once — see the wire's forwarded bit)
	// and answered locally only when the owner is unreachable.
	Router Forwarder
	// Peer names this process in the cluster (its own address). When set,
	// the core pathsvc_* counters are additionally exported with a
	// {peer="..."} label so multi-peer scrapes can tell instances apart.
	Peer string
	// ForwardConcurrency bounds in-flight peer forwards
	// (0 = DefaultForwardConcurrency). Beyond the bound the server answers
	// locally instead of queueing forwards.
	ForwardConcurrency int
}

// Defaults for Config zero values.
const (
	DefaultQueueDepth         = 256
	DefaultRetryAfter         = 50 * time.Millisecond
	DefaultRequestTimeout     = 2 * time.Second
	DefaultShedThreshold      = 0.75
	DefaultDegradeWidth       = 1
	DefaultMaxBatch           = 1024
	DefaultForwardConcurrency = 256
)

// Counters is the always-on (obs-independent) event ledger of a Server,
// updated atomically on the serving path and re-exported through obs
// callbacks when a registry is configured.
type Counters struct {
	Conns     stats.Counter // accepted connections
	Requests  stats.Counter // decoded requests of any op
	Admitted  stats.Counter // requests that entered the work queue
	Shed      stats.Counter // requests rejected at admission (queue full)
	Degraded  stats.Counter // responses truncated below full width by queue pressure
	Deadline  stats.Counter // requests that missed their deadline
	Failed    stats.Counter // bad_request / unroutable / internal responses
	Completed stats.Counter // successful responses
	// Cluster-mode ledger (all zero without a Router).
	Forwarded     stats.Counter // non-owned queries answered through the owning peer
	ForwardErrors stats.Counter // forwards that failed (peer down, overload, stream broken)
	ForwardedIn   stats.Counter // queries that arrived already forwarded by a peer
	DegradedLocal stats.Counter // non-owned queries answered locally after a failed forward
	BatchLocal    stats.Counter // batches answered locally despite containing non-owned pairs
}

// Snapshot is a point-in-time reading of Counters.
type Snapshot struct {
	Conns, Requests, Admitted, Shed                                int64
	Degraded, Deadline, Failed, Completed                          int64
	Forwarded, ForwardErrors, ForwardedIn, DegradedLoc, BatchLocal int64
	// Coalesced counted queries answered off an identical in-flight query.
	//
	// Deprecated: always zero from this server. Duplicate constructions
	// are suppressed by the container cache's singleflight instead.
	Coalesced int64
}

// String renders the snapshot on one line for CLI summaries.
func (s Snapshot) String() string {
	line := fmt.Sprintf("conns=%d requests=%d admitted=%d shed=%d degraded=%d deadline=%d failed=%d completed=%d",
		s.Conns, s.Requests, s.Admitted, s.Shed, s.Degraded, s.Deadline, s.Failed, s.Completed)
	if s.Forwarded > 0 || s.ForwardErrors > 0 || s.ForwardedIn > 0 || s.DegradedLoc > 0 || s.BatchLocal > 0 {
		line += fmt.Sprintf(" forwarded=%d fwd_errors=%d fwd_in=%d degraded_local=%d batch_local=%d",
			s.Forwarded, s.ForwardErrors, s.ForwardedIn, s.DegradedLoc, s.BatchLocal)
	}
	return line
}

// task is one request on its way to an answer: what to compute and
// everything needed to answer its requester. v1 is the decoded JSON request
// of a requester that spoke wire v1 (nil for v2): send renders the answer
// through the v1 codec from it.
type task struct {
	pc       *serverConn
	v1       *Request
	id       uint64
	rid      string // request id echoed in the response ("" = untraced, none supplied)
	op       uint8  // v2 op code
	maxPaths int
	degraded bool
	queueNS  int64 // time spent waiting for a worker, set at pickup
	tr       *reqTrace
	// deadline is the absolute per-request deadline (arrival + the request
	// or default timeout). A plain time.Time instead of a context: the serve
	// path only ever polls expiry, and skipping context.WithTimeout saves a
	// context, a timer, and a cancel func per request.
	deadline time.Time
	start    time.Time

	u, v  hhc.Node
	pairs []NodePair
	// pairErrs holds the per-pair address errors of a v1 batch, indexed
	// like pairs (nil when every pair parsed): such a pair is answered as a
	// per-item error, not a request failure.
	pairErrs []error
	faults   map[hhc.Node]bool
	enqueued time.Time
	// forwarded mirrors the wire's hop-guard bit: the query already crossed
	// a peer hop, so this server must answer it locally whatever the ring says.
	forwarded bool
}

// outcome is the answer to one task, before deliver applies the
// requester's width and deadline policy.
type outcome struct {
	code    uint8 // v2 status byte
	errMsg  string
	paths   [][]hhc.Node
	results []BatchItemV2
	retryNS int64
	execNS  int64 // construction time
}

// serverConn serializes concurrent response writes onto one connection.
type serverConn struct {
	c       net.Conn
	remote  string
	maxSend int
	wmu     sync.Mutex
	// pending counts responses owed by the worker pool; the reader waits
	// for it before closing the connection, so graceful shutdown never
	// drops an admitted request's answer.
	pending sync.WaitGroup
}

// send encodes one response in the recipient's encoding (v1 non-nil: the
// request arrived as v1 JSON) and writes it as a single frame from a
// pooled buffer: no intermediate payload slice and exactly one conn.Write,
// so the steady-state v2 send path allocates nothing.
//
//hhc:hotpath
func (pc *serverConn) send(v1 *Request, resp *ResponseV2) {
	bufp := frameBufPool.Get().(*[]byte)
	buf := appendFramePrefix(*bufp)
	buf = appendResponse(buf, v1, resp)
	if patchFramePrefix(buf) > pc.maxSend {
		buf = pc.oversize(buf, v1, resp)
	}
	if buf != nil {
		pc.wmu.Lock()
		// An I/O error means the peer vanished; the reader will observe the
		// broken connection and clean up, so there is nobody left to notify.
		_, _ = pc.c.Write(buf)
		pc.wmu.Unlock()
		*bufp = buf[:0]
	}
	frameBufPool.Put(bufp)
}

// oversize replaces a response that outgrew the frame limit with a small
// typed error — the peer is alive and blocked on its answer, so silence
// would hang it forever. If even the substitute cannot be framed, the
// connection is closed so the client at least sees EOF.
func (pc *serverConn) oversize(buf []byte, v1 *Request, resp *ResponseV2) []byte {
	small := ResponseV2{ID: resp.ID, RID: resp.RID, Op: resp.Op, Code: StatusInternal,
		Err: fmt.Sprintf("%s: response exceeds %d bytes", ErrFrameTooLarge.Error(), pc.maxSend)}
	buf = appendFramePrefix(buf)
	buf = appendResponse(buf, v1, &small)
	if patchFramePrefix(buf) > pc.maxSend {
		_ = pc.c.Close()
		return nil
	}
	return buf
}

// Server serves disjoint-path queries over length-prefixed frames in
// either wire encoding, v1 JSON or v2 binary, detected per frame. Create
// with New, run with Serve, stop with Shutdown.
type Server struct {
	cfg      Config
	g        *hhc.Graph
	cache    *cache.Cache
	counters Counters

	queue    chan *task
	shedHigh int

	quit      chan struct{} // closed by Shutdown: stop admitting work
	done      chan struct{} // closed by Serve once fully drained
	closeOnce sync.Once
	started   atomic.Bool

	connMu sync.Mutex
	ln     net.Listener          // guarded by connMu (Serve publishes, beginClose closes)
	conns  map[net.Conn]struct{} // guarded by connMu
	connWG sync.WaitGroup

	workerWG      sync.WaitGroup
	activeWorkers atomic.Int64

	// fwdSem bounds in-flight peer forwards (nil without a Router); a full
	// semaphore downgrades to an immediate local answer, so forwards can
	// never starve the connection readers or the worker pool.
	fwdSem    chan struct{}
	forwardWG sync.WaitGroup

	met *svcMetrics

	// stallForTest, when non-nil, runs at the top of every worker
	// execution; lifecycle tests use it to hold workers mid-request.
	stallForTest func()
}

// New validates cfg, builds the topology and its container cache, and
// registers the metric set when cfg.Reg is non-nil.
func New(cfg Config) (*Server, error) {
	if cfg.Workers <= 0 {
		cfg.Workers = runtime.GOMAXPROCS(0)
	}
	if cfg.QueueDepth <= 0 {
		cfg.QueueDepth = DefaultQueueDepth
	}
	if cfg.RetryAfter <= 0 {
		cfg.RetryAfter = DefaultRetryAfter
	}
	if cfg.DefaultTimeout <= 0 {
		cfg.DefaultTimeout = DefaultRequestTimeout
	}
	if cfg.MaxFrame <= 0 {
		cfg.MaxFrame = DefaultMaxFrame
	}
	if cfg.ShedThreshold == 0 {
		cfg.ShedThreshold = DefaultShedThreshold
	}
	if cfg.ShedThreshold < 0 || cfg.ShedThreshold > 1 {
		return nil, fmt.Errorf("pathsvc: shed threshold %g out of range (0, 1]", cfg.ShedThreshold)
	}
	if cfg.DegradeWidth <= 0 {
		cfg.DegradeWidth = DefaultDegradeWidth
	}
	if cfg.MaxBatch <= 0 {
		cfg.MaxBatch = DefaultMaxBatch
	}
	// Even an all-error batch reply spends ~minBatchItemBytes per item, so a
	// batch larger than this floor could never answer within one frame;
	// capping MaxBatch lets admission refuse it up front.
	if floor := (cfg.MaxFrame - batchEnvelopeBytes) / minBatchItemBytes; cfg.MaxBatch > floor {
		cfg.MaxBatch = floor
		if cfg.MaxBatch < 1 {
			cfg.MaxBatch = 1
		}
	}
	switch cfg.Admission {
	case AdmitReject, AdmitBlock:
	default:
		return nil, fmt.Errorf("pathsvc: unknown admission policy %d", int(cfg.Admission))
	}
	g, err := hhc.New(cfg.M)
	if err != nil {
		return nil, err
	}
	c, err := cache.New(g, cfg.Cache)
	if err != nil {
		return nil, err
	}
	shedHigh := int(cfg.ShedThreshold * float64(cfg.QueueDepth))
	if shedHigh < 1 {
		shedHigh = 1
	}
	if cfg.ForwardConcurrency <= 0 {
		cfg.ForwardConcurrency = DefaultForwardConcurrency
	}
	s := &Server{
		cfg:      cfg,
		g:        g,
		cache:    c,
		queue:    make(chan *task, cfg.QueueDepth),
		shedHigh: shedHigh,
		quit:     make(chan struct{}),
		done:     make(chan struct{}),
		conns:    make(map[net.Conn]struct{}),
	}
	if cfg.Router != nil {
		s.fwdSem = make(chan struct{}, cfg.ForwardConcurrency)
	}
	if cfg.Reg != nil {
		s.met = newSvcMetrics(cfg.Reg, s)
		s.cache.Register(cfg.Reg)
	}
	return s, nil
}

// M returns the served son-cube dimension.
func (s *Server) M() int { return s.g.M() }

// Counters returns a point-in-time reading of the serving ledger.
func (s *Server) Counters() Snapshot {
	return Snapshot{
		Conns:         s.counters.Conns.Load(),
		Requests:      s.counters.Requests.Load(),
		Admitted:      s.counters.Admitted.Load(),
		Shed:          s.counters.Shed.Load(),
		Degraded:      s.counters.Degraded.Load(),
		Deadline:      s.counters.Deadline.Load(),
		Failed:        s.counters.Failed.Load(),
		Completed:     s.counters.Completed.Load(),
		Forwarded:     s.counters.Forwarded.Load(),
		ForwardErrors: s.counters.ForwardErrors.Load(),
		ForwardedIn:   s.counters.ForwardedIn.Load(),
		DegradedLoc:   s.counters.DegradedLocal.Load(),
		BatchLocal:    s.counters.BatchLocal.Load(),
	}
}

// CacheSnapshot reads the backing container cache's counters.
func (s *Server) CacheSnapshot() stats.CacheSnapshot { return s.cache.Snapshot() }

// Serve accepts connections on ln and blocks until Shutdown (returning
// nil) or an accept error. It owns the drain: by the time Serve returns,
// every admitted request has been answered and every worker has exited.
func (s *Server) Serve(ln net.Listener) error {
	if !s.started.CompareAndSwap(false, true) {
		return errors.New("pathsvc: Serve called twice")
	}
	s.connMu.Lock()
	s.ln = ln
	s.connMu.Unlock()
	// A Shutdown that raced Serve's startup saw s.ln nil and could not close
	// it; re-checking after publication guarantees one of the two sides does.
	if s.closing() {
		_ = ln.Close()
	}
	s.workerWG.Add(s.cfg.Workers)
	for i := 0; i < s.cfg.Workers; i++ {
		go s.worker()
	}
	var err error
	for {
		conn, aerr := ln.Accept()
		if aerr != nil {
			if !s.closing() {
				err = fmt.Errorf("pathsvc: accept: %w", aerr)
				s.beginClose()
			}
			break
		}
		s.counters.Conns.Inc()
		s.track(conn)
		s.connWG.Add(1)
		go s.handleConn(conn)
	}
	// Drain: readers first (they stop enqueuing and wait out their pending
	// responses), then in-flight peer forwards (their fallbacks re-enter the
	// queue, so the queue cannot close under them), then the queue, then the
	// workers.
	s.connWG.Wait()
	s.forwardWG.Wait()
	close(s.queue)
	s.workerWG.Wait()
	close(s.done)
	return err
}

// Shutdown gracefully stops the server: no new connections or requests are
// accepted, every in-flight and queued request is answered, and the worker
// pool exits. It returns nil once fully drained, or ctx.Err() if ctx
// expires first (the drain keeps going in the background).
func (s *Server) Shutdown(ctx context.Context) error {
	s.beginClose()
	select {
	case <-s.done:
		return nil
	case <-ctx.Done():
		return ctx.Err()
	}
}

// beginClose makes the shutdown decision once: refuse new work and poke
// every blocked connection reader awake.
func (s *Server) beginClose() {
	s.closeOnce.Do(func() {
		close(s.quit)
		s.connMu.Lock()
		if s.ln != nil {
			_ = s.ln.Close()
		}
		for c := range s.conns {
			// Unblock pending reads; the reader sees quit closed and exits
			// after its owed responses are written.
			_ = c.SetReadDeadline(time.Now())
		}
		s.connMu.Unlock()
	})
}

func (s *Server) closing() bool {
	select {
	case <-s.quit:
		return true
	default:
		return false
	}
}

func (s *Server) track(c net.Conn) {
	s.connMu.Lock()
	s.conns[c] = struct{}{}
	s.connMu.Unlock()
	// A connection accepted just before beginClose but tracked just after it
	// missed the poke loop; re-checking here closes that window, so an idle
	// reader cannot block the drain forever.
	if s.closing() {
		_ = c.SetReadDeadline(time.Now())
	}
}

func (s *Server) untrack(c net.Conn) {
	s.connMu.Lock()
	delete(s.conns, c)
	s.connMu.Unlock()
}

// openConns reports the live connection count (metrics callback).
func (s *Server) openConns() int {
	s.connMu.Lock()
	defer s.connMu.Unlock()
	return len(s.conns)
}

// handleConn reads frames off one connection and dispatches them. It never
// closes the connection while worker responses are owed.
func (s *Server) handleConn(conn net.Conn) {
	pc := &serverConn{c: conn, remote: conn.RemoteAddr().String(), maxSend: s.cfg.MaxFrame}
	s.logConnOpen(pc.remote)
	defer func() {
		pc.pending.Wait()
		_ = conn.Close()
		s.untrack(conn)
		s.logConnClose(pc.remote)
		s.connWG.Done()
	}()
	br := bufio.NewReader(conn)
	// One read buffer and one decode scratch per connection: every frame
	// lands in rbuf (grown once, then reused) and decodes into in, whose
	// slices dispatch copies out of before returning.
	var rbuf []byte
	var in inbound
	for {
		payload, err := ReadFrameInto(br, rbuf, s.cfg.MaxFrame)
		if err != nil {
			// EOF, a peer reset, a framing violation, or the shutdown read
			// deadline: all end the connection.
			return
		}
		rbuf = payload
		derr := s.decodeFrame(payload, &in)
		if s.closing() {
			// The frame raced the drain decision; refuse it explicitly, in
			// the encoding it arrived in (best effort — the id is only known
			// if the payload decodes).
			if derr == nil {
				s.counters.Requests.Inc()
				s.fail(pc, &in, in.req.RID, nil, StatusShutdown, ErrShutdown)
			}
			return
		}
		if derr != nil {
			// A structurally broken frame is still answerable — the outer
			// framing holds, and when at least the header decoded the
			// refusal carries the request's id.
			s.counters.Requests.Inc()
			s.fail(pc, &in, in.req.RID, nil, StatusBadRequest, derr)
			continue
		}
		s.dispatch(pc, &in)
	}
}

// dispatch validates a decoded request, answers trivial ops inline, and
// hands the rest to the shared admission path. It runs on the connection's
// reader goroutine, so AdmitBlock backpressure parks exactly the connection
// that is overloading the queue. in aliases the connection's decode
// scratch, so everything the task retains past return (faults, batch
// pairs) is copied out here; scalar endpoints and the already-copied RID
// string ride along for free.
//
//hhc:hotpath
func (s *Server) dispatch(pc *serverConn, in *inbound) {
	s.counters.Requests.Inc()
	start := time.Now()
	req := &in.req
	tr := s.beginTrace(in.op, req.RID, pc.remote, req.Origin)
	// The echoed request id: the trace id when tracing is on (it adopts a
	// client-supplied RID), else a pass-through of whatever the client sent.
	rid := req.RID
	if id := tr.id(); id != "" {
		rid = id
	}

	switch req.Op {
	case OpCodePing, OpCodeInfo:
		resp := ResponseV2{ID: req.ID, RID: rid, Op: req.Op}
		if req.Op == OpCodeInfo {
			resp.M, resp.Full, resp.Width = s.g.M(), s.g.M()+1, s.g.M()+1
		}
		s.counters.Completed.Inc()
		pc.send(in.v1, &resp)
		tr.finish(StatusOK)
		s.met.observeRequest(time.Since(start), rid)
		return
	}
	err := in.bad
	if err == nil {
		err = s.validate(req)
	}
	if err != nil {
		s.fail(pc, in, rid, tr, StatusBadRequest, err)
		return
	}

	t := &task{
		pc: pc, v1: in.v1, id: req.ID, rid: rid, op: req.Op,
		maxPaths: req.MaxPaths, tr: tr, start: start,
		pairErrs: in.pairErrs, forwarded: req.Forwarded,
	}
	switch req.Op {
	case OpCodePaths, OpCodeRoute:
		t.u, t.v = req.U, req.V
		tr.setAttrNode("u", t.u)
		tr.setAttrNode("v", t.v)
		if req.Op == OpCodeRoute {
			t.faults = make(map[hhc.Node]bool, len(req.Faults))
			for _, f := range req.Faults {
				t.faults[f] = true
			}
		}
	case OpCodeBatch:
		t.pairs = append(t.pairs, req.Pairs...)
		tr.setAttrInt("pairs", len(t.pairs))
	}

	timeout := s.cfg.DefaultTimeout
	if req.TimeoutNS > 0 {
		timeout = time.Duration(req.TimeoutNS)
	}
	t.deadline = start.Add(timeout)
	s.admit(t)
}

// validate checks a decoded query against the served topology and the
// batch limits. Binary addresses skip ParseNode, so their range is checked
// here (v1 addresses already passed it at decode).
func (s *Server) validate(req *RequestV2) error {
	switch req.Op {
	case OpCodePaths, OpCodeRoute:
		if err := s.checkNode(req.U); err != nil {
			return err
		}
		if err := s.checkNode(req.V); err != nil {
			return err
		}
		for _, f := range req.Faults {
			if err := s.checkNode(f); err != nil {
				return err
			}
		}
	case OpCodeBatch:
		if len(req.Pairs) == 0 {
			return errors.New("pathsvc: batch with no pairs")
		}
		if len(req.Pairs) > s.cfg.MaxBatch {
			return fmt.Errorf("pathsvc: batch of %d pairs exceeds the %d-pair limit", len(req.Pairs), s.cfg.MaxBatch)
		}
	}
	return nil
}

// checkNode renders the binary-address analogue of hhc's out-of-range
// parse error for a node outside the served topology.
func (s *Server) checkNode(u hhc.Node) error {
	if s.g.Contains(u) {
		return nil
	}
	return fmt.Errorf("pathsvc: node %s out of range for m=%d", s.g.FormatNode(u), s.g.M())
}

// admit routes one validated request: in cluster mode, path/route queries
// whose canonical key another peer owns are relayed there (unless the
// hop-guard bit says the query already crossed a hop — then this server
// answers locally no matter what its ring says, so disagreeing membership
// views can never bounce a query forever); everything else runs the local
// admission path.
func (s *Server) admit(t *task) {
	if s.cfg.Router != nil && (t.op == OpCodePaths || t.op == OpCodeRoute) {
		if t.forwarded {
			s.counters.ForwardedIn.Inc()
		} else if !s.cfg.Router.Owns(t.u, t.v) {
			s.forward(t)
			return
		}
	}
	s.admitLocal(t)
}

// admitLocal runs the protocol-independent tail of dispatch: the degrade
// decision and admission control. Every local query enters the work queue
// or is refused here; identical concurrent queries are not merged, because
// the container cache's singleflight already runs one construction per
// canonical key. It runs on the connection's reader goroutine (or a
// forward goroutine falling back after a peer failure), so AdmitBlock
// backpressure parks exactly the connection that is overloading the queue.
func (s *Server) admitLocal(t *task) {
	// The degrade decision is taken at admission time: a queue filling past
	// the shed threshold marks new path queries for width truncation.
	t.degraded = len(s.queue) >= s.shedHigh

	t.enqueued = time.Now()
	t.tr.endAdmission()
	t.tr.startQueue()
	t.pc.pending.Add(1)
	select {
	case s.queue <- t:
		s.counters.Admitted.Inc()
		return
	default:
	}
	if s.cfg.Admission == AdmitBlock {
		select {
		case s.queue <- t:
			s.counters.Admitted.Inc()
			return
		case <-s.quit:
			s.deliver(t, outcome{code: StatusShutdown, errMsg: ErrShutdown.Error()})
			return
		}
	}
	// AdmitReject: shed now, with a back-off hint.
	s.counters.Shed.Inc()
	s.deliver(t, outcome{
		code:    StatusOverload,
		errMsg:  ErrOverload.Error(),
		retryNS: int64(s.cfg.RetryAfter.Truncate(time.Millisecond)),
	})
}

// forward relays a non-owned query to its owning peer on a dedicated
// bounded goroutine: forwards must never occupy a construction worker, or
// two peers forwarding to each other could deadlock both pools. The owed
// response is reserved (pc.pending) before the reader goroutine moves on,
// so connection close and graceful drain both account for the in-flight
// hop.
func (s *Server) forward(t *task) {
	t.tr.endAdmission()
	t.pc.pending.Add(1)
	select {
	case s.fwdSem <- struct{}{}:
	default:
		// The forward pool is saturated. Answering locally is always
		// correct — just a construction the owner's cache would have
		// absorbed — so shed the hop, not the request.
		s.counters.DegradedLocal.Inc()
		s.fallbackLocal(t)
		return
	}
	t.tr.startForward()
	s.forwardWG.Add(1)
	go func() {
		defer s.forwardWG.Done()
		defer func() { <-s.fwdSem }()
		s.runForward(t)
	}()
}

// runForward executes one peer hop: the query goes out as a v2 frame with
// the hop-guard bit set and MaxPaths 0 (the full container comes back, and
// deliver applies this requester's own width, degrade, and deadline policy
// locally). Transport failures and an overloaded or draining owner
// downgrade to a local answer; any other owner verdict is this query's
// answer and is relayed as-is.
func (s *Server) runForward(t *task) {
	// The rid and this peer's own address travel with the hop, so the owner
	// records the forwarded tree under the same rid, tagged with its origin
	// — the two halves of the cross-peer trace stitch back together by rid.
	// A client that supplied no rid still gets a joinable trace: the hop
	// carries the id the flight recorder minted for this request.
	rid := t.rid
	if rid == "" {
		rid = t.tr.id()
	}
	req := RequestV2{Op: t.op, RID: rid, U: t.u, V: t.v,
		Forwarded: true, Origin: s.cfg.Peer}
	if len(t.faults) > 0 {
		req.Faults = make([]hhc.Node, 0, len(t.faults))
		for f := range t.faults {
			req.Faults = append(req.Faults, f)
		}
	}
	remaining := time.Until(t.deadline)
	if remaining <= 0 {
		t.tr.endForward()
		s.deliver(t, outcome{code: StatusDeadline, errMsg: ErrDeadlineExceeded.Error()})
		return
	}
	req.TimeoutNS = int64(remaining)
	var resp ResponseV2
	peer, err := s.cfg.Router.Forward(&req, &resp)
	if err == nil {
		// Relay the owner's timing into this requester's view: the forward
		// span decomposes into remote queue/exec/wire children, and the
		// response's queue_ns reports the remote queue wait (this side never
		// queued, so the field would otherwise read 0 and hide the stall).
		t.tr.endForwardWith(peer, resp.QueueNS, resp.ExecNS)
		t.queueNS = resp.QueueNS
		s.counters.Forwarded.Inc()
		s.deliver(t, outcome{paths: resp.Paths, execNS: resp.ExecNS})
		return
	}
	var se *ServerError
	if errors.As(err, &se) && !errors.Is(se, ErrOverload) && !errors.Is(se, ErrShutdown) {
		// The owner reached a verdict (bad_request, unroutable, deadline,
		// internal): that verdict is the answer — the hop itself worked.
		t.tr.endForwardWith(peer, resp.QueueNS, resp.ExecNS)
		s.counters.Forwarded.Inc()
		s.deliver(t, outcome{code: statusOf(se.Code), errMsg: se.Msg})
		return
	}
	// The peer is unreachable, the stream broke, or the owner is too loaded
	// to help: degrade to a correctness-preserving local answer.
	s.counters.ForwardErrors.Inc()
	s.counters.DegradedLocal.Inc()
	s.fallbackLocal(t)
}

// fallbackLocal re-enters the local admission path for a query whose
// forward could not run. The pending reservation taken by forward is
// released only after admitLocal takes its own, so the connection's
// owed-response count never touches zero with the answer still unsent.
func (s *Server) fallbackLocal(t *task) {
	t.tr.endForward()
	s.admitLocal(t)
	t.pc.pending.Done()
}

// fail answers a request that never reached the queue: a frame refused
// at decode or during the drain (tr is nil: nothing was traced yet), or a
// request that failed validation.
func (s *Server) fail(pc *serverConn, in *inbound, rid string, tr *reqTrace, code uint8, err error) {
	if code != StatusShutdown {
		// A drain refusal is not a failure (deliver does not count one either).
		s.counters.Failed.Inc()
	}
	msg := err.Error()
	s.logResponse(pc.remote, in.op, rid, code, msg)
	pc.send(in.v1, &ResponseV2{ID: in.req.ID, RID: rid, Op: in.req.Op, Code: code, Err: msg})
	tr.finish(code)
}

// worker executes queued tasks until the queue closes.
func (s *Server) worker() {
	defer s.workerWG.Done()
	for t := range s.queue {
		wait := time.Since(t.enqueued)
		s.met.observeQueueWait(wait)
		t.queueNS = int64(wait)
		t.tr.endQueue()
		s.activeWorkers.Add(1)
		s.process(t)
		s.activeWorkers.Add(-1)
	}
}

func (s *Server) process(t *task) {
	if s.stallForTest != nil {
		s.stallForTest()
	}
	var out outcome
	if !t.deadline.IsZero() && time.Now().After(t.deadline) {
		out = outcome{code: StatusDeadline, errMsg: ErrDeadlineExceeded.Error()}
	} else {
		t.tr.startExec()
		execStart := time.Now()
		switch t.op {
		case OpCodePaths:
			out = s.doPaths(t)
		case OpCodeRoute:
			out = s.doRoute(t)
		case OpCodeBatch:
			out = s.doBatch(t)
		}
		out.execNS = int64(time.Since(execStart))
		s.met.observeExec(time.Duration(out.execNS), t.rid)
		t.tr.endExec()
	}
	s.deliver(t, out)
}

// doPaths constructs (or fetches) the full-width container; truncation is
// applied per recipient in deliver.
func (s *Server) doPaths(t *task) outcome {
	paths, err := s.cache.Paths(t.u, t.v, core.Options{})
	if err != nil {
		return outcome{code: StatusBadRequest, errMsg: err.Error()}
	}
	return outcome{paths: paths}
}

// doRoute picks the shortest container path avoiding the declared faults.
func (s *Server) doRoute(t *task) outcome {
	if t.faults[t.u] {
		return outcome{code: StatusBadRequest,
			errMsg: fmt.Sprintf("pathsvc: source %s is faulty", s.g.FormatNode(t.u))}
	}
	if t.faults[t.v] {
		return outcome{code: StatusBadRequest,
			errMsg: fmt.Sprintf("pathsvc: destination %s is faulty", s.g.FormatNode(t.v))}
	}
	paths, err := s.cache.Paths(t.u, t.v, core.Options{})
	if err != nil {
		return outcome{code: StatusBadRequest, errMsg: err.Error()}
	}
	surviving := core.SurvivingPaths(paths, t.faults)
	if len(surviving) == 0 {
		return outcome{code: StatusUnroutable, errMsg: core.ErrAllPathsFaulty.Error()}
	}
	sort.Slice(surviving, func(i, j int) bool { return len(surviving[i]) < len(surviving[j]) })
	return outcome{paths: surviving[:1]}
}

const (
	// batchEnvelopeBytes is the frame budget reserved for the non-Results
	// fields of a batch Response (ver, id, op, and JSON punctuation).
	batchEnvelopeBytes = 256
	// minBatchItemBytes is the smallest footprint one BatchItem can encode
	// to (an error item with minimal addresses).
	minBatchItemBytes = 32
)

// doBatch serves every pair through the cache, checking the deadline
// between items so a huge batch cannot outlive its budget, and the encoded
// size — in the recipient's own encoding — so the response is refused with
// a typed error, rather than silently undeliverable, when it cannot fit
// one reply frame. Containers stay node-native; the encoder packs them.
func (s *Server) doBatch(t *task) outcome {
	sizeBudget := s.cfg.MaxFrame - batchEnvelopeBytes
	size := 0
	nonOwned := false
	results := make([]BatchItemV2, 0, len(t.pairs))
	for i, pair := range t.pairs {
		if time.Now().After(t.deadline) {
			return outcome{code: StatusDeadline, errMsg: ErrDeadlineExceeded.Error()}
		}
		item := BatchItemV2{U: pair.U, V: pair.V}
		var err error
		if t.pairErrs != nil {
			err = t.pairErrs[i]
		}
		if err == nil {
			err = s.checkNode(pair.U)
		}
		if err == nil {
			err = s.checkNode(pair.V)
		}
		if err == nil {
			if s.cfg.Router != nil && !s.cfg.Router.Owns(pair.U, pair.V) {
				nonOwned = true
			}
			item.Paths, err = s.cache.Paths(pair.U, pair.V, core.Options{})
		}
		if err != nil {
			item.Err = err.Error()
		}
		size += t.batchItemSize(i, &item)
		if size > sizeBudget {
			return outcome{code: StatusBadRequest, errMsg: fmt.Sprintf(
				"pathsvc: batch response exceeds the %d-byte frame limit at pair %d of %d; split the batch",
				s.cfg.MaxFrame, i+1, len(t.pairs))}
		}
		results = append(results, item)
	}
	s.noteBatchLocal(t, nonOwned)
	return outcome{results: results}
}

// noteBatchLocal counts a batch that was answered locally even though it
// contained pairs another peer owns — batch forwarding is a known gap
// (see ROADMAP), and this counter makes its cost visible in telemetry
// instead of silently folding into local work. Hop-guarded batches are
// excluded: a forwarded batch is supposed to be answered locally.
func (s *Server) noteBatchLocal(t *task, nonOwned bool) {
	if nonOwned && s.cfg.Router != nil && !t.forwarded {
		s.counters.BatchLocal.Inc()
	}
}

// deliver answers a task's requester: the deadline check, the width
// truncation, the counters and latency sample, in the requester's own
// encoding. The OK path slices out.paths in place (resp.Paths =
// out.paths[:k]) and send encodes it once on this goroutine, so a v2
// answer needs no copy and no per-node formatting.
// The tree reaches the flight recorder after the write (the encode span
// covers it), so a client holding its answer may not see the tree yet.
//
//hhc:hotpath
func (s *Server) deliver(t *task, out outcome) {
	defer t.pc.pending.Done()
	resp := ResponseV2{ID: t.id, RID: t.rid, Op: t.op,
		QueueNS: t.queueNS, ExecNS: out.execNS}
	code := out.code
	if code == StatusOK && !t.deadline.IsZero() && time.Now().After(t.deadline) {
		// The construction finished, but after this requester's own
		// deadline: a stale answer is still a missed deadline.
		code, out = StatusDeadline, outcome{errMsg: ErrDeadlineExceeded.Error()}
	}
	switch code {
	case StatusOK:
		switch t.op {
		case OpCodePaths:
			full := len(out.paths)
			k := full
			if t.maxPaths > 0 && t.maxPaths < k {
				k = t.maxPaths
			}
			if t.degraded && s.cfg.DegradeWidth < k {
				k = s.cfg.DegradeWidth
				resp.Degraded = true
				s.counters.Degraded.Inc()
			}
			resp.Paths = out.paths[:k]
			resp.Width, resp.Full = k, full
			t.tr.setAttrInt("width", k)
		case OpCodeRoute:
			resp.Paths = out.paths
			resp.Width, resp.Full = len(out.paths), s.g.M()+1
		case OpCodeBatch:
			resp.Results = out.results
		}
		s.counters.Completed.Inc()
	case StatusDeadline:
		s.counters.Deadline.Inc()
		resp.Code, resp.Err = code, out.errMsg
	case StatusOverload, StatusShutdown:
		// Shed/refused work is already counted at its decision site.
		resp.Code, resp.Err = code, out.errMsg
		resp.RetryAfterNS = out.retryNS
	default:
		s.counters.Failed.Inc()
		resp.Code, resp.Err = code, out.errMsg
	}
	if code != StatusOK {
		op, _ := opNameOf(t.op)
		s.logResponse(t.pc.remote, op, t.rid, code, resp.Err)
	}
	t.tr.startEncode()
	t.pc.send(t.v1, &resp)
	t.tr.endEncode()
	t.tr.finish(code)
	s.met.observeRequest(time.Since(t.start), t.rid)
}
