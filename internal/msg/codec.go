package msg

import (
	"encoding/binary"
	"errors"
	"fmt"
	"math"

	"etx/internal/id"
)

// Codec errors.
var (
	// ErrTruncated reports a buffer that ended before the message did.
	ErrTruncated = errors.New("msg: truncated message")
	// ErrBadKind reports an unknown payload kind byte.
	ErrBadKind = errors.New("msg: unknown payload kind")
	// ErrOversize reports a length field exceeding the sanity limit.
	ErrOversize = errors.New("msg: oversized field")
)

// maxFieldLen bounds any single variable-length field to guard against
// corrupted length prefixes when decoding from an untrusted stream.
const maxFieldLen = 16 << 20

// Encode serializes an envelope. The format is:
//
//	from-node | to-node | kind byte | payload fields
//
// where nodes are (role byte, varint index) and all integers are
// binary varints. Byte slices and strings are length-prefixed.
func Encode(env Envelope) ([]byte, error) {
	return AppendEncode(nil, env)
}

// AppendEncode serializes an envelope into buf (which may carry reserved
// prefix bytes, e.g. a frame-length slot) and returns the extended slice.
// It lets transports reuse a pooled buffer instead of allocating per send.
func AppendEncode(buf []byte, env Envelope) ([]byte, error) {
	w := writer{buf: buf}
	w.node(env.From)
	w.node(env.To)
	if err := w.payload(env.Payload); err != nil {
		return nil, err
	}
	return w.buf, nil
}

// Decode parses a buffer produced by Encode. It returns ErrTruncated,
// ErrBadKind or ErrOversize (wrapped) on malformed input.
func Decode(b []byte) (Envelope, error) {
	r := reader{buf: b}
	var env Envelope
	env.From = r.node()
	env.To = r.node()
	p, err := r.payloadOrErr()
	if err != nil {
		return Envelope{}, err
	}
	if r.err != nil {
		return Envelope{}, r.err
	}
	if len(r.buf) != r.off {
		return Envelope{}, fmt.Errorf("msg: %d trailing bytes after message", len(r.buf)-r.off)
	}
	env.Payload = p
	return env, nil
}

// --- writer ------------------------------------------------------------

type writer struct {
	buf []byte
}

func (w *writer) byte(b byte)      { w.buf = append(w.buf, b) }
func (w *writer) uvarint(v uint64) { w.buf = binary.AppendUvarint(w.buf, v) }
func (w *writer) varint(v int64)   { w.buf = binary.AppendVarint(w.buf, v) }

func (w *writer) bytes(b []byte) {
	w.uvarint(uint64(len(b)))
	w.buf = append(w.buf, b...)
}

func (w *writer) string(s string) {
	w.uvarint(uint64(len(s)))
	w.buf = append(w.buf, s...)
}

func (w *writer) bool(b bool) {
	if b {
		w.byte(1)
	} else {
		w.byte(0)
	}
}

func (w *writer) node(n id.NodeID) {
	w.byte(byte(n.Role))
	w.varint(int64(n.Index))
}

func (w *writer) rid(r id.ResultID) {
	w.node(r.Client)
	w.uvarint(r.Seq)
	w.uvarint(r.Try)
}

func (w *writer) regKey(k RegKey) {
	w.byte(byte(k.Array))
	if k.Array == RegBatch {
		w.uvarint(k.Slot)
		return
	}
	w.rid(k.RID)
}

func (w *writer) regOps(ops []RegOp) {
	w.uvarint(uint64(len(ops)))
	for _, op := range ops {
		w.regKey(op.Reg)
		w.bytes(op.Val)
	}
}

func (w *writer) decision(d Decision) {
	w.byte(byte(d.Outcome))
	w.bytes(d.Result)
	// The participant dlist distinguishes nil (unknown — terminate must fall
	// back to every database server) from empty (touched nothing): the
	// marker is 0 for nil, count+1 otherwise.
	if d.Participants == nil {
		w.uvarint(0)
		return
	}
	w.uvarint(uint64(len(d.Participants)) + 1)
	for _, n := range d.Participants {
		w.node(n)
	}
}

func (w *writer) op(o Op) {
	w.byte(byte(o.Code))
	w.string(o.Key)
	w.varint(o.Delta)
	w.bytes(o.Val)
}

func (w *writer) opResult(r OpResult) {
	w.bytes(r.Val)
	w.varint(r.Num)
	w.bool(r.OK)
	w.string(r.Err)
}

func (w *writer) payload(p Payload) error {
	if p == nil {
		return errors.New("msg: nil payload")
	}
	w.byte(byte(p.Kind()))
	switch m := p.(type) {
	case Request:
		w.rid(m.RID)
		w.bytes(m.Body)
	case Result:
		w.rid(m.RID)
		w.decision(m.Dec)
	case Prepare:
		w.rid(m.RID)
	case VoteMsg:
		w.rid(m.RID)
		w.byte(byte(m.V))
		w.uvarint(m.Inc)
	case Decide:
		w.rid(m.RID)
		w.byte(byte(m.O))
	case AckDecide:
		w.rid(m.RID)
		w.byte(byte(m.O))
	case Ready:
		w.uvarint(m.Inc)
	case Exec:
		w.rid(m.RID)
		w.uvarint(m.CallID)
		w.op(m.Op)
	case ExecReply:
		w.rid(m.RID)
		w.uvarint(m.CallID)
		w.opResult(m.Rep)
		w.uvarint(m.Inc)
	case Estimate:
		w.regKey(m.Reg)
		w.uvarint(uint64(m.Round))
		w.uvarint(uint64(m.TS))
		w.bytes(m.Est)
		w.uvarint(m.WM)
	case Propose:
		w.regKey(m.Reg)
		w.uvarint(uint64(m.Round))
		w.bytes(m.Val)
		w.uvarint(m.WM)
	case CAck:
		w.regKey(m.Reg)
		w.uvarint(uint64(m.Round))
		w.uvarint(m.WM)
	case CNack:
		w.regKey(m.Reg)
		w.uvarint(uint64(m.Round))
		w.uvarint(m.WM)
	case CDecision:
		w.regKey(m.Reg)
		w.bytes(m.Val)
		w.uvarint(m.WM)
	case Heartbeat:
		w.uvarint(m.Seq)
		w.uvarint(m.WM)
	case Checkpoint:
		w.uvarint(m.Floor)
		w.regOps(m.Regs)
	case RData:
		w.uvarint(m.Inc)
		w.uvarint(m.Seq)
		w.uvarint(m.Base)
		return w.payload(m.Inner)
	case Batch:
		w.uvarint(uint64(len(m.Msgs)))
		for _, inner := range m.Msgs {
			if _, nested := inner.(Batch); nested {
				return errors.New("msg: nested Batch")
			}
			if err := w.payload(inner); err != nil {
				return err
			}
		}
	case RAck:
		w.uvarint(m.Inc)
		w.uvarint(m.Seq)
	case RegOps:
		w.regOps(m.Ops)
	case Commit1P:
		w.rid(m.RID)
	case PBStart:
		w.rid(m.RID)
		w.bytes(m.Body)
	case PBStartAck:
		w.rid(m.RID)
	case PBOutcome:
		w.rid(m.RID)
		w.decision(m.Dec)
	case PBOutcomeAck:
		w.rid(m.RID)
	case ReplRecord:
		w.uvarint(m.Seq)
		w.uvarint(m.Inc)
		w.bytes(m.Rec)
	case ReplAck:
		w.uvarint(m.Seq)
	case NewPrimary:
		w.uvarint(m.Shard)
		w.uvarint(m.Epoch)
		w.node(m.Primary)
	default:
		return fmt.Errorf("msg: cannot encode payload type %T", p)
	}
	return nil
}

// --- reader ------------------------------------------------------------

type reader struct {
	buf []byte
	off int
	err error
}

func (r *reader) fail(err error) {
	if r.err == nil {
		r.err = err
	}
}

func (r *reader) byte() byte {
	if r.err != nil {
		return 0
	}
	if r.off >= len(r.buf) {
		r.fail(ErrTruncated)
		return 0
	}
	b := r.buf[r.off]
	r.off++
	return b
}

func (r *reader) uvarint() uint64 {
	if r.err != nil {
		return 0
	}
	v, n := binary.Uvarint(r.buf[r.off:])
	if n <= 0 {
		r.fail(ErrTruncated)
		return 0
	}
	r.off += n
	return v
}

func (r *reader) varint() int64 {
	if r.err != nil {
		return 0
	}
	v, n := binary.Varint(r.buf[r.off:])
	if n <= 0 {
		r.fail(ErrTruncated)
		return 0
	}
	r.off += n
	return v
}

func (r *reader) bytes() []byte {
	n := r.uvarint()
	if r.err != nil {
		return nil
	}
	if n > maxFieldLen {
		r.fail(ErrOversize)
		return nil
	}
	if r.off+int(n) > len(r.buf) {
		r.fail(ErrTruncated)
		return nil
	}
	if n == 0 {
		return nil
	}
	out := make([]byte, n)
	copy(out, r.buf[r.off:r.off+int(n)])
	r.off += int(n)
	return out
}

func (r *reader) string() string {
	b := r.bytes()
	return string(b)
}

func (r *reader) bool() bool { return r.byte() != 0 }

func (r *reader) node() id.NodeID {
	role := id.Role(r.byte())
	idx := r.varint()
	if r.err != nil {
		return id.NodeID{}
	}
	if idx > math.MaxInt32 || idx < math.MinInt32 {
		r.fail(ErrOversize)
		return id.NodeID{}
	}
	return id.NodeID{Role: role, Index: int(idx)}
}

func (r *reader) rid() id.ResultID {
	n := r.node()
	seq := r.uvarint()
	try := r.uvarint()
	return id.ResultID{Client: n, Seq: seq, Try: try}
}

func (r *reader) regKey() RegKey {
	a := RegArray(r.byte())
	if a == RegBatch {
		return RegKey{Array: a, Slot: r.uvarint()}
	}
	rid := r.rid()
	return RegKey{Array: a, RID: rid}
}

func (r *reader) regOps() []RegOp {
	n := r.uvarint()
	if r.err != nil {
		return nil
	}
	// Each op occupies at least two bytes (array byte plus a varint), so a
	// count beyond the remaining buffer is a corrupt length prefix — fail
	// before allocating for it, mirroring the Batch member guard.
	if n > uint64(len(r.buf)-r.off) {
		r.fail(ErrOversize)
		return nil
	}
	ops := make([]RegOp, 0, n)
	for i := uint64(0); i < n; i++ {
		k := r.regKey()
		v := r.bytes()
		if r.err != nil {
			return nil
		}
		if k.Array == RegBatch {
			// A batch slot is not a register; a batch of writes to batch
			// slots is the RegOps analogue of a nested Batch.
			r.fail(errors.New("msg: RegOp targets a batch slot"))
			return nil
		}
		ops = append(ops, RegOp{Reg: k, Val: v})
	}
	return ops
}

func (r *reader) decision() Decision {
	o := Outcome(r.byte())
	res := r.bytes()
	marker := r.uvarint()
	if r.err != nil || marker == 0 {
		return Decision{Result: res, Outcome: o}
	}
	n := marker - 1
	// Each node occupies at least two bytes, so a count beyond the remaining
	// buffer is a corrupt length prefix — fail before allocating for it.
	if n > uint64(len(r.buf)-r.off) {
		r.fail(ErrOversize)
		return Decision{}
	}
	parts := make([]id.NodeID, 0, n)
	for i := uint64(0); i < n; i++ {
		parts = append(parts, r.node())
	}
	return Decision{Result: res, Outcome: o, Participants: parts}
}

func (r *reader) op() Op {
	c := OpCode(r.byte())
	k := r.string()
	d := r.varint()
	v := r.bytes()
	return Op{Code: c, Key: k, Delta: d, Val: v}
}

func (r *reader) opResult() OpResult {
	v := r.bytes()
	n := r.varint()
	ok := r.bool()
	e := r.string()
	return OpResult{Val: v, Num: n, OK: ok, Err: e}
}

// EncodeRegOps serializes an ordered register-op batch as a standalone value
// — the proposed (and decided) value of a cohort-consensus slot instance.
func EncodeRegOps(ops []RegOp) []byte {
	var w writer
	w.regOps(ops)
	return w.buf
}

// DecodeRegOps parses EncodeRegOps's output. Like Decode it rejects trailing
// bytes, oversized counts and truncated fields, so a corrupt batch value can
// never be half-applied.
func DecodeRegOps(b []byte) ([]RegOp, error) {
	r := reader{buf: b}
	ops := r.regOps()
	if r.err != nil {
		return nil, r.err
	}
	if len(r.buf) != r.off {
		return nil, fmt.Errorf("msg: %d trailing bytes after register ops", len(r.buf)-r.off)
	}
	return ops, nil
}

func (r *reader) round() uint32 {
	v := r.uvarint()
	if v > math.MaxUint32 {
		r.fail(ErrOversize)
		return 0
	}
	return uint32(v)
}

func (r *reader) payloadOrErr() (Payload, error) {
	k := Kind(r.byte())
	if r.err != nil {
		return nil, r.err
	}
	var p Payload
	switch k {
	case KindRequest:
		p = Request{RID: r.rid(), Body: r.bytes()}
	case KindResult:
		p = Result{RID: r.rid(), Dec: r.decision()}
	case KindPrepare:
		p = Prepare{RID: r.rid()}
	case KindVote:
		p = VoteMsg{RID: r.rid(), V: Vote(r.byte()), Inc: r.uvarint()}
	case KindDecide:
		p = Decide{RID: r.rid(), O: Outcome(r.byte())}
	case KindAckDecide:
		p = AckDecide{RID: r.rid(), O: Outcome(r.byte())}
	case KindReady:
		p = Ready{Inc: r.uvarint()}
	case KindExec:
		p = Exec{RID: r.rid(), CallID: r.uvarint(), Op: r.op()}
	case KindExecReply:
		p = ExecReply{RID: r.rid(), CallID: r.uvarint(), Rep: r.opResult(), Inc: r.uvarint()}
	case KindEstimate:
		p = Estimate{Reg: r.regKey(), Round: r.round(), TS: r.round(), Est: r.bytes(), WM: r.uvarint()}
	case KindPropose:
		p = Propose{Reg: r.regKey(), Round: r.round(), Val: r.bytes(), WM: r.uvarint()}
	case KindAck:
		p = CAck{Reg: r.regKey(), Round: r.round(), WM: r.uvarint()}
	case KindNack:
		p = CNack{Reg: r.regKey(), Round: r.round(), WM: r.uvarint()}
	case KindDecision:
		p = CDecision{Reg: r.regKey(), Val: r.bytes(), WM: r.uvarint()}
	case KindHeartbeat:
		p = Heartbeat{Seq: r.uvarint(), WM: r.uvarint()}
	case KindCheckpoint:
		p = Checkpoint{Floor: r.uvarint(), Regs: r.regOps()}
	case KindRData:
		inc, seq, base := r.uvarint(), r.uvarint(), r.uvarint()
		inner, err := r.payloadOrErr()
		if err != nil {
			return nil, err
		}
		p = RData{Inc: inc, Seq: seq, Base: base, Inner: inner}
	case KindRAck:
		p = RAck{Inc: r.uvarint(), Seq: r.uvarint()}
	case KindRegOps:
		p = RegOps{Ops: r.regOps()}
	case KindBatch:
		n := r.uvarint()
		if r.err != nil {
			return nil, r.err
		}
		// Each member payload occupies at least one byte, so a count beyond
		// the remaining buffer is a corrupt length prefix.
		if n > uint64(len(r.buf)-r.off) {
			return nil, ErrOversize
		}
		msgs := make([]Payload, 0, n)
		for i := uint64(0); i < n; i++ {
			inner, err := r.payloadOrErr()
			if err != nil {
				return nil, err
			}
			if _, nested := inner.(Batch); nested {
				return nil, errors.New("msg: nested Batch")
			}
			msgs = append(msgs, inner)
		}
		p = Batch{Msgs: msgs}
	case KindCommit1P:
		p = Commit1P{RID: r.rid()}
	case KindPBStart:
		p = PBStart{RID: r.rid(), Body: r.bytes()}
	case KindPBStartAck:
		p = PBStartAck{RID: r.rid()}
	case KindPBOutcome:
		p = PBOutcome{RID: r.rid(), Dec: r.decision()}
	case KindPBOutcomeAck:
		p = PBOutcomeAck{RID: r.rid()}
	case KindReplRecord:
		p = ReplRecord{Seq: r.uvarint(), Inc: r.uvarint(), Rec: r.bytes()}
	case KindReplAck:
		p = ReplAck{Seq: r.uvarint()}
	case KindNewPrimary:
		p = NewPrimary{Shard: r.uvarint(), Epoch: r.uvarint(), Primary: r.node()}
	default:
		return nil, fmt.Errorf("%w: %d", ErrBadKind, uint8(k))
	}
	if r.err != nil {
		return nil, r.err
	}
	return p, nil
}
