// Package pathsvc puts the container construction on the wire: a
// length-prefixed TCP protocol serving disjoint-path queries (single,
// batch, and fault-avoiding variants) backed by internal/core and
// internal/cache, plus the server-side production engineering the paper's
// poly(n) bound makes possible — bounded admission queues, per-request
// deadlines, in-flight coalescing of identical queries, and load shedding
// that degrades container width before it drops requests.
//
// # Wire format
//
// Every message is one frame: a 4-byte big-endian payload length followed
// by that many bytes in one of two encodings, told apart by the first
// payload byte. Wire v1 (wire.go) is one JSON object (ProtocolVersion =
// 1, carried in Request.Ver / Response.Ver; a server rejects versions it
// does not speak with CodeBadRequest rather than guessing), with node
// addresses in the textual "x:y" form of hhc.ParseNode / hhc.FormatNode.
// Wire v2 (wire2.go) is a fixed-layout binary encoding of the same
// requests and responses with packed node addresses. The server runs one
// request path on the v2 types and translates v1 at the frame boundary.
package pathsvc

import (
	"encoding/binary"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net"
)

// ProtocolVersion is the JSON wire version (v1). Requests must carry it;
// responses echo it.
const ProtocolVersion = 1

// MaxProtocolVersion is the newest wire version this package speaks. The
// server advertises it in the ver_max field of OpInfo responses so clients
// can negotiate up to the binary v2 codec (see wire2.go); old servers omit
// the field and clients stay on v1.
const MaxProtocolVersion = ProtocolV2

// DefaultMaxFrame bounds the payload size of a single frame (1 MiB). The
// decoder validates the length prefix against the limit before allocating,
// so a hostile 4 GiB prefix costs nothing.
const DefaultMaxFrame = 1 << 20

// Ops understood by the server.
const (
	// OpPaths asks for the (m+1)-wide node-disjoint container between U
	// and V (possibly truncated: see Request.MaxPaths and Response.Degraded).
	OpPaths = "paths"
	// OpBatch asks for containers for every pair in Pairs.
	OpBatch = "batch"
	// OpRoute asks for one shortest container path avoiding Faults.
	OpRoute = "route"
	// OpInfo reports the served topology (m, container width).
	OpInfo = "info"
	// OpPing is a liveness no-op.
	OpPing = "ping"
)

// Response codes. CodeOK is the empty string so successful responses omit
// the field entirely.
const (
	CodeOK         = ""
	CodeBadRequest = "bad_request" // malformed op, address, or parameters
	CodeOverload   = "overload"    // admission queue full; retry after RetryAfterMS
	CodeDeadline   = "deadline"    // the per-request deadline expired in queue or in flight
	CodeShutdown   = "shutdown"    // server is draining; the connection will close
	CodeUnroutable = "unroutable"  // every container path crosses a declared fault
	CodeInternal   = "internal"    // construction failed (should not happen on valid input)
)

// Request is one client query.
type Request struct {
	// Ver is the protocol version; must be ProtocolVersion.
	Ver int `json:"ver"`
	// ID is an opaque client-chosen correlation id echoed in the response.
	ID uint64 `json:"id"`
	// RID is an optional client-supplied request id for cross-system trace
	// correlation. It is echoed in Response.RID and stamped on the server's
	// request trace; when omitted (older clients), the server assigns one if
	// request tracing is enabled. Same-version servers ignore unknown
	// fields, so either side may omit it freely.
	RID string `json:"rid,omitempty"`
	// Op selects the query kind (OpPaths, OpBatch, OpRoute, OpInfo, OpPing).
	Op string `json:"op"`
	// U and V are the endpoints in "x:y" form (OpPaths, OpRoute).
	U string `json:"u,omitempty"`
	V string `json:"v,omitempty"`
	// Pairs are the [source, destination] endpoint pairs of OpBatch.
	Pairs [][2]string `json:"pairs,omitempty"`
	// Faults lists nodes OpRoute must avoid.
	Faults []string `json:"faults,omitempty"`
	// MaxPaths, when > 0, truncates the returned container to the first
	// MaxPaths paths (the client only wants that much redundancy).
	MaxPaths int `json:"max_paths,omitempty"`
	// Fwd marks a query relayed peer-to-peer inside a cluster (the hop
	// guard). A server never forwards a request that already carries it:
	// the receiving peer answers locally even when membership views
	// disagree about ownership, so a query crosses at most one extra hop.
	Fwd bool `json:"fwd,omitempty"`
	// Origin names the forwarding peer on an Fwd request (the requester's
	// advertised -self address): the owner tags its request trace with it,
	// so cross-peer trees stitch by rid + origin. Empty on direct traffic.
	Origin string `json:"origin,omitempty"`
	// TimeoutMS, when > 0, caps this request's end-to-end time (queue wait
	// included); otherwise the server default applies.
	TimeoutMS int64 `json:"timeout_ms,omitempty"`
}

// BatchItem is one per-pair outcome inside an OpBatch response.
type BatchItem struct {
	U     string     `json:"u"`
	V     string     `json:"v"`
	Paths [][]string `json:"paths,omitempty"`
	Err   string     `json:"err,omitempty"`
}

// Response is the server's answer to one Request.
type Response struct {
	Ver int    `json:"ver"`
	ID  uint64 `json:"id"`
	Op  string `json:"op"`
	// RID echoes Request.RID, or carries the server-assigned request id
	// when the client sent none and request tracing is on. Empty when the
	// server has tracing disabled and the client supplied nothing.
	RID string `json:"rid,omitempty"`
	// Server-side timing, filled for requests that went through the work
	// queue: time spent waiting for a worker, construction time, and
	// whether the answer piggybacked on an identical in-flight query
	// (coalesced answers share ExecNS and report QueueNS = 0). Older
	// clients ignore these fields; older servers omit them.
	QueueNS   int64 `json:"queue_ns,omitempty"`
	ExecNS    int64 `json:"exec_ns,omitempty"`
	Coalesced bool  `json:"coalesced,omitempty"`
	// Code is CodeOK ("", omitted) on success, else one of the Code
	// constants; Err carries the human-readable detail.
	Code string `json:"code,omitempty"`
	Err  string `json:"err,omitempty"`
	// RetryAfterMS accompanies CodeOverload: the client should back off at
	// least this long before retrying.
	RetryAfterMS int64 `json:"retry_after_ms,omitempty"`
	// Paths is the container (OpPaths) or the single surviving path as
	// Paths[0] (OpRoute), nodes in "x:y" form.
	Paths [][]string `json:"paths,omitempty"`
	// Results are the per-pair outcomes of OpBatch.
	Results []BatchItem `json:"results,omitempty"`
	// Degraded reports that load shedding truncated the container below
	// the full m+1 width; Width is what was returned, Full the maximum.
	Degraded bool `json:"degraded,omitempty"`
	Width    int  `json:"width,omitempty"`
	Full     int  `json:"full,omitempty"`
	// M is the served topology's son-cube dimension (OpInfo).
	M int `json:"m,omitempty"`
	// VerMax is the newest protocol version the server speaks, reported on
	// OpInfo responses (omitted by servers predating version negotiation,
	// which a client must read as "v1 only").
	VerMax int `json:"ver_max,omitempty"`
}

// Framing errors. ErrFrameTooLarge is returned before any payload
// allocation happens, so oversized prefixes cannot be used to exhaust
// memory.
var (
	ErrFrameTooLarge = errors.New("pathsvc: frame exceeds size limit")
	ErrEmptyFrame    = errors.New("pathsvc: zero-length frame")
)

// WriteFrame marshals v and writes it as one length-prefixed frame. max
// bounds the encoded payload (<= 0 selects DefaultMaxFrame). The prefix
// and payload go out in a single writev-style net.Buffers write, so a
// frame never splits into two syscalls (or two TCP segments) at this
// layer.
func WriteFrame(w io.Writer, v any, max int) error {
	if max <= 0 {
		max = DefaultMaxFrame
	}
	payload, err := json.Marshal(v)
	if err != nil {
		return fmt.Errorf("pathsvc: encode frame: %w", err)
	}
	if len(payload) > max {
		return fmt.Errorf("%w: %d > %d bytes", ErrFrameTooLarge, len(payload), max)
	}
	var prefix [4]byte
	binary.BigEndian.PutUint32(prefix[:], uint32(len(payload)))
	bufs := net.Buffers{prefix[:], payload}
	_, err = bufs.WriteTo(w)
	return err
}

// ReadFrame reads one length-prefixed payload from r into a fresh buffer.
// See ReadFrameInto for the semantics; hot paths reuse a buffer instead.
func ReadFrame(r io.Reader, max int) ([]byte, error) {
	return ReadFrameInto(r, nil, max)
}

// ReadFrameInto reads one length-prefixed payload from r, reusing buf's
// backing array when it is large enough (the returned slice aliases it).
// max bounds the accepted payload size (<= 0 selects DefaultMaxFrame); the
// length prefix is validated against it before any allocation. The
// comparison happens in uint64 space: a max above math.MaxUint32 accepts
// every representable frame rather than being truncated to 32 bits (the
// old uint32(max) cast could both accept frames the caller meant to reject
// and reject frames the caller meant to accept). io.EOF is returned
// unwrapped when the stream ends cleanly between frames.
func ReadFrameInto(r io.Reader, buf []byte, max int) ([]byte, error) {
	if max <= 0 {
		max = DefaultMaxFrame
	}
	var prefix [4]byte
	if _, err := io.ReadFull(r, prefix[:]); err != nil {
		if err == io.ErrUnexpectedEOF {
			return nil, fmt.Errorf("pathsvc: truncated frame prefix: %w", err)
		}
		return nil, err
	}
	n := binary.BigEndian.Uint32(prefix[:])
	if n == 0 {
		return nil, ErrEmptyFrame
	}
	if uint64(n) > uint64(max) {
		return nil, fmt.Errorf("%w: prefix claims %d > %d bytes", ErrFrameTooLarge, n, max)
	}
	var payload []byte
	if uint64(cap(buf)) >= uint64(n) {
		payload = buf[:n]
	} else {
		payload = make([]byte, n)
	}
	if _, err := io.ReadFull(r, payload); err != nil {
		return nil, fmt.Errorf("pathsvc: truncated frame payload: %w", err)
	}
	return payload, nil
}

// DecodeRequest parses one request payload and checks the protocol
// version. Unknown fields are ignored (minor-version tolerance); a wrong
// or missing Ver is an error so version skew fails loudly.
func DecodeRequest(payload []byte) (Request, error) {
	var req Request
	if err := json.Unmarshal(payload, &req); err != nil {
		return Request{}, fmt.Errorf("pathsvc: decode request: %w", err)
	}
	if req.Ver != ProtocolVersion {
		return req, fmt.Errorf("pathsvc: unsupported protocol version %d (speak %d)", req.Ver, ProtocolVersion)
	}
	return req, nil
}

// DecodeResponse parses one response payload.
func DecodeResponse(payload []byte) (Response, error) {
	var resp Response
	if err := json.Unmarshal(payload, &resp); err != nil {
		return Response{}, fmt.Errorf("pathsvc: decode response: %w", err)
	}
	if resp.Ver != ProtocolVersion {
		return resp, fmt.Errorf("pathsvc: unsupported protocol version %d (speak %d)", resp.Ver, ProtocolVersion)
	}
	return resp, nil
}
