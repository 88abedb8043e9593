package pathsvc

import (
	"encoding/json"
	"fmt"
	"time"

	"repro/internal/hhc"
)

// The server's frame boundary. Inside the server every request is a
// RequestV2 and every answer a ResponseV2, with hhc.Node addresses; wire
// v1 is a codec that translates at this boundary only. A v1 request is
// decoded and translated here, its JSON form travels with the request as
// task.v1, and the answer is rendered back into v1 JSON at send
// time. Whichever wire a query arrives on, it runs the same dispatch,
// admission, execution and delivery code.

// inbound is one decoded request frame. The reader reuses one per
// connection; dispatch copies out what the task keeps.
type inbound struct {
	req RequestV2
	// op names the request for logs and traces (a v1 unknown op keeps the
	// client's spelling).
	op string
	// v1 is the JSON request a v1 frame carried, nil for v2: the v1
	// encoder echoes its op and its batch addresses.
	v1 *Request
	// bad is a v1 translation failure (an unknown op, an address ParseNode
	// rejects), answered bad_request once the request is counted and traced.
	bad error
	// pairErrs holds the per-pair parse failures of a v1 batch (nil when
	// every pair parsed).
	pairErrs []error
}

// decodeFrame decodes one request payload into in. The first byte picks
// the encoding: JSON opens with '{', v2 with frameMagicV2. On error in
// holds whatever decoded, so the refusal can still carry the request's id.
//
//hhc:hotpath
func (s *Server) decodeFrame(payload []byte, in *inbound) error {
	if payload[0] != frameMagicV2 {
		return s.decodeV1(payload, in)
	}
	in.v1, in.bad, in.pairErrs = nil, nil, nil
	err := DecodeRequestV2(payload, &in.req)
	in.op, _ = opNameOf(in.req.Op)
	return err
}

// decodeV1 is the v1 codec's decode half. It parses one JSON request and
// translates it into the node-native form: addresses through g.ParseNode,
// timeout_ms to nanoseconds, fwd/origin onto Forwarded/Origin. A decode
// error (malformed JSON, wrong ver) is returned. A translation failure is
// left in in.bad instead, and a batch pair that fails to parse becomes a
// per-item error in in.pairErrs.
func (s *Server) decodeV1(payload []byte, in *inbound) error {
	v1, err := DecodeRequest(payload)
	op, known := opCodeOf(v1.Op)
	req := &in.req
	*req = RequestV2{ID: v1.ID, Op: op, RID: v1.RID,
		Faults: req.Faults[:0], Pairs: req.Pairs[:0],
		MaxPaths: v1.MaxPaths, TimeoutNS: v1.TimeoutMS * int64(time.Millisecond),
		Forwarded: v1.Fwd, Origin: v1.Origin}
	in.v1, in.op, in.bad, in.pairErrs = &v1, v1.Op, nil, nil
	if err != nil {
		return err
	}
	if !known {
		in.bad = fmt.Errorf("unknown op %q", v1.Op)
		return nil
	}
	switch op {
	case OpCodePaths, OpCodeRoute:
		if req.U, in.bad = s.g.ParseNode(v1.U); in.bad != nil {
			return nil
		}
		if req.V, in.bad = s.g.ParseNode(v1.V); in.bad != nil || op == OpCodePaths {
			return nil // paths ignores faults
		}
		for _, f := range v1.Faults {
			var fn hhc.Node
			if fn, in.bad = s.g.ParseNode(f); in.bad != nil {
				return nil
			}
			req.Faults = append(req.Faults, fn)
		}
	case OpCodeBatch:
		for i, pair := range v1.Pairs {
			var p NodePair
			p.U, err = s.g.ParseNode(pair[0])
			if err == nil {
				p.V, err = s.g.ParseNode(pair[1])
			}
			if err != nil {
				if in.pairErrs == nil {
					in.pairErrs = make([]error, len(v1.Pairs))
				}
				in.pairErrs[i] = err
			}
			req.Pairs = append(req.Pairs, p)
		}
	}
	return nil
}

// appendResponse appends resp to buf in the recipient's encoding: v2
// directly, or through the v1 codec when the request arrived as JSON. With
// batchItemSize it is the only server code that asks which wire a request
// came in on.
//
//hhc:hotpath
func appendResponse(buf []byte, v1 *Request, resp *ResponseV2) []byte {
	if v1 == nil {
		return AppendResponseV2(buf, resp)
	}
	return appendResponseV1(buf, v1, resp)
}

// appendResponseV1 is the v1 codec's encode half: it renders resp as the
// v1 Response answering v1 (nodes formatted, the client's op spelling and
// batch addresses echoed, ver_max advertised on info) and appends its JSON.
func appendResponseV1(buf []byte, v1 *Request, resp *ResponseV2) []byte {
	r := Response{Ver: ProtocolVersion, ID: resp.ID, Op: v1.Op, RID: resp.RID,
		QueueNS: resp.QueueNS, ExecNS: resp.ExecNS,
		Code: codeOfStatus(resp.Code), Err: resp.Err,
		RetryAfterMS: resp.RetryAfterNS / int64(time.Millisecond),
		Paths:        formatPaths(resp.Paths),
		Degraded:     resp.Degraded, Width: resp.Width, Full: resp.Full, M: resp.M}
	if resp.Op == OpCodeInfo && resp.Code == StatusOK {
		r.VerMax = MaxProtocolVersion
	}
	if len(resp.Results) > 0 {
		r.Results = make([]BatchItem, len(resp.Results))
		for i := range resp.Results {
			r.Results[i] = batchItemV1(v1, i, &resp.Results[i])
		}
	}
	// A Response holds only strings, numbers and bools: it always marshals.
	enc, _ := json.Marshal(&r)
	return append(buf, enc...)
}

// batchItemSize is batch item i's encoded size in the recipient's own
// encoding: doBatch budgets the reply frame with it, so a batch is refused
// at the pair where that recipient's frame would overflow.
func (t *task) batchItemSize(i int, item *BatchItemV2) int {
	if t.v1 == nil {
		return batchItemSizeV2(item)
	}
	// A BatchItem holds only strings: it always marshals.
	enc, _ := json.Marshal(batchItemV1(t.v1, i, item))
	return len(enc) + 1 // +1 for the separating comma
}

// batchItemV1 renders batch item i for a v1 requester, echoing the
// addresses exactly as the client spelled them.
func batchItemV1(v1 *Request, i int, item *BatchItemV2) BatchItem {
	return BatchItem{U: v1.Pairs[i][0], V: v1.Pairs[i][1],
		Paths: formatPaths(item.Paths), Err: item.Err}
}

// formatPaths renders container paths in the textual "x:y" form.
func formatPaths(paths [][]hhc.Node) [][]string {
	if len(paths) == 0 {
		return nil
	}
	out := make([][]string, len(paths))
	for i, p := range paths {
		out[i] = make([]string, len(p))
		for j, n := range p {
			out[i][j] = hhc.FormatNodeWire(n)
		}
	}
	return out
}
