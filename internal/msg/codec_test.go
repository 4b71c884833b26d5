package msg

import (
	"bytes"
	"math/rand"
	"reflect"
	"testing"
	"testing/quick"

	"etx/internal/id"
)

func rid(c, s, tr int) id.ResultID {
	return id.ResultID{Client: id.Client(c), Seq: uint64(s), Try: uint64(tr)}
}

// allPayloads returns one representative of every payload type, with
// non-trivial field values.
func allPayloads() []Payload {
	r := rid(1, 7, 3)
	return []Payload{
		Request{RID: r, Body: []byte("book flight LHR->GVA")},
		Result{RID: r, Dec: Decision{Result: []byte("seat 12A"), Outcome: OutcomeCommit}},
		Result{RID: r, Dec: Decision{Result: nil, Outcome: OutcomeAbort}},
		// The participant dlist round-trips, distinguishing nil (unknown;
		// the cases above) from empty (touched nothing) from populated.
		Result{RID: r, Dec: Decision{Result: []byte("ok"), Outcome: OutcomeCommit,
			Participants: []id.NodeID{id.DBServer(2), id.DBServer(5)}}},
		Result{RID: r, Dec: Decision{Outcome: OutcomeCommit, Participants: []id.NodeID{}}},
		Prepare{RID: r},
		VoteMsg{RID: r, V: VoteYes, Inc: 4},
		VoteMsg{RID: r, V: VoteNo, Inc: 0},
		Decide{RID: r, O: OutcomeCommit},
		Decide{RID: r, O: OutcomeAbort},
		AckDecide{RID: r, O: OutcomeCommit},
		Ready{Inc: 9},
		Exec{RID: r, CallID: 42, Op: Op{Code: OpAdd, Key: "acct/1", Delta: -100}},
		Exec{RID: r, CallID: 1, Op: Op{Code: OpPut, Key: "k", Val: []byte{1, 2, 3}}},
		ExecReply{RID: r, CallID: 42, Rep: OpResult{Num: 900, OK: true}, Inc: 2},
		ExecReply{RID: r, CallID: 7, Rep: OpResult{OK: false, Err: "lock timeout"}, Inc: 1},
		Estimate{Reg: RegKey{Array: RegA, RID: r}, Round: 3, TS: 2, Est: []byte("appserver-1")},
		Propose{Reg: RegKey{Array: RegD, RID: r}, Round: 1, Val: []byte("decision")},
		CAck{Reg: RegKey{Array: RegA, RID: r}, Round: 5},
		CNack{Reg: RegKey{Array: RegD, RID: r}, Round: 6},
		CDecision{Reg: RegKey{Array: RegD, RID: r}, Val: []byte("v")},
		Heartbeat{Seq: 1234},
		RData{Inc: 0x9e3779b97f4a7c15, Seq: 9, Base: 4, Inner: Prepare{RID: r}},
		RData{Inc: 3, Seq: 10, Base: 10, Inner: RData{Inc: 1 << 63, Seq: 11, Base: 1, Inner: Heartbeat{Seq: 1}}},
		RAck{Inc: 0x9e3779b97f4a7c15, Seq: 9},
		RAck{Inc: ^uint64(0), Seq: 1 << 40},
		Commit1P{RID: r},
		PBStart{RID: r, Body: []byte("req")},
		PBStartAck{RID: r},
		PBOutcome{RID: r, Dec: Decision{Result: []byte("res"), Outcome: OutcomeCommit}},
		PBOutcomeAck{RID: r},
		Batch{Msgs: []Payload{Prepare{RID: r}, Decide{RID: r, O: OutcomeAbort}}},
		Batch{Msgs: []Payload{
			VoteMsg{RID: r, V: VoteYes, Inc: 2},
			AckDecide{RID: r, O: OutcomeCommit},
			AckDecide{RID: rid(2, 8, 1), O: OutcomeAbort},
		}},
		RData{Inc: 7, Seq: 12, Base: 1, Inner: Batch{Msgs: []Payload{Prepare{RID: r}, Prepare{RID: rid(2, 8, 1)}}}},
		Estimate{Reg: SlotKey(17), Round: 1, TS: 0, Est: []byte("batch-value")},
		CDecision{Reg: SlotKey(18), Val: []byte("batch-value")},
		RegOps{Ops: []RegOp{
			{Reg: RegKey{Array: RegA, RID: r}, Val: []byte("who")},
			{Reg: RegKey{Array: RegD, RID: rid(2, 8, 1)}, Val: []byte("dec")},
		}},
		// The watermark piggyback survives on every consensus payload and on
		// heartbeats.
		Estimate{Reg: SlotKey(19), Round: 2, TS: 1, Est: []byte("v"), WM: 42},
		Propose{Reg: SlotKey(19), Round: 2, Val: []byte("v"), WM: 43},
		CAck{Reg: SlotKey(19), Round: 2, WM: 44},
		CNack{Reg: SlotKey(19), Round: 2, WM: 45},
		CDecision{Reg: SlotKey(19), Val: []byte("v"), WM: 46},
		Heartbeat{Seq: 77, WM: 46},
		Checkpoint{Floor: 31, Regs: []RegOp{
			{Reg: RegKey{Array: RegA, RID: r}, Val: []byte("who")},
			{Reg: RegKey{Array: RegD, RID: rid(2, 8, 1)}, Val: []byte("dec")},
		}},
		Checkpoint{Floor: 0, Regs: nil},
		ReplRecord{Seq: 12, Inc: 3, Rec: []byte{2, 1, 0, 7}},
		ReplRecord{Seq: 1, Inc: 1},
		ReplAck{Seq: 12},
		NewPrimary{Shard: 2, Epoch: 5, Primary: id.DBServer(6)},
	}
}

func TestEncodeDecodeRoundTripAllKinds(t *testing.T) {
	for _, p := range allPayloads() {
		env := Envelope{From: id.AppServer(1), To: id.DBServer(2), Payload: p}
		b, err := Encode(env)
		if err != nil {
			t.Fatalf("Encode(%s): %v", p.Kind(), err)
		}
		back, err := Decode(b)
		if err != nil {
			t.Fatalf("Decode(%s): %v", p.Kind(), err)
		}
		if back.From != env.From || back.To != env.To {
			t.Errorf("%s: addressing mangled: %v", p.Kind(), back)
		}
		if !payloadEqual(env.Payload, back.Payload) {
			t.Errorf("%s round trip:\n got %#v\nwant %#v", p.Kind(), back.Payload, env.Payload)
		}
	}
}

// payloadEqual compares payloads treating nil and empty byte slices as equal
// (the codec does not distinguish them, by design).
func payloadEqual(a, b Payload) bool {
	normalize := func(p Payload) Payload {
		switch m := p.(type) {
		case Request:
			if len(m.Body) == 0 {
				m.Body = nil
			}
			return m
		case Result:
			if len(m.Dec.Result) == 0 {
				m.Dec.Result = nil
			}
			return m
		case Exec:
			if len(m.Op.Val) == 0 {
				m.Op.Val = nil
			}
			return m
		case ExecReply:
			if len(m.Rep.Val) == 0 {
				m.Rep.Val = nil
			}
			return m
		case Estimate:
			if len(m.Est) == 0 {
				m.Est = nil
			}
			return m
		case Propose:
			if len(m.Val) == 0 {
				m.Val = nil
			}
			return m
		case CDecision:
			if len(m.Val) == 0 {
				m.Val = nil
			}
			return m
		case RData:
			m.Inner = normalizeInner(m.Inner)
			return m
		case Checkpoint:
			if len(m.Regs) == 0 {
				m.Regs = nil
			}
			return m
		case PBStart:
			if len(m.Body) == 0 {
				m.Body = nil
			}
			return m
		case PBOutcome:
			if len(m.Dec.Result) == 0 {
				m.Dec.Result = nil
			}
			return m
		}
		return p
	}
	return reflect.DeepEqual(normalize(a), normalize(b))
}

func normalizeInner(p Payload) Payload {
	if rd, ok := p.(RData); ok {
		rd.Inner = normalizeInner(rd.Inner)
		return rd
	}
	return p
}

func TestDecodeErrors(t *testing.T) {
	env := Envelope{From: id.Client(1), To: id.AppServer(1), Payload: Request{RID: rid(1, 1, 1), Body: []byte("hello")}}
	good, err := Encode(env)
	if err != nil {
		t.Fatal(err)
	}
	tests := []struct {
		name string
		buf  []byte
	}{
		{"empty", nil},
		{"truncated header", good[:1]},
		{"truncated mid-payload", good[:len(good)-3]},
		{"trailing garbage", append(append([]byte{}, good...), 0xFF)},
		{"bad kind", func() []byte {
			b := append([]byte{}, good...)
			// kind byte sits right after the two node ids (2 bytes role+index each)
			b[4] = 0xEE
			return b
		}()},
	}
	for _, tt := range tests {
		if _, err := Decode(tt.buf); err == nil {
			t.Errorf("%s: Decode succeeded, want error", tt.name)
		}
	}
}

func TestDecodeOversizeLength(t *testing.T) {
	// Hand-craft a Request whose body length prefix claims 1 GiB.
	var w writer
	w.node(id.Client(1))
	w.node(id.AppServer(1))
	w.byte(byte(KindRequest))
	w.rid(rid(1, 1, 1))
	w.uvarint(1 << 30)
	if _, err := Decode(w.buf); err == nil {
		t.Fatal("Decode accepted a 1 GiB length prefix")
	}
}

func TestEncodeNilPayloadFails(t *testing.T) {
	if _, err := Encode(Envelope{From: id.Client(1), To: id.Client(2)}); err == nil {
		t.Fatal("Encode of nil payload must fail")
	}
}

// TestDecodeRandomBytesNeverPanics fuzzes the decoder with random buffers.
func TestDecodeRandomBytesNeverPanics(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	for i := 0; i < 5000; i++ {
		n := rng.Intn(64)
		b := make([]byte, n)
		rng.Read(b)
		_, _ = Decode(b) // must not panic; error is fine
	}
}

// TestRoundTripPropertyRequest uses testing/quick over Request payload fields.
func TestRoundTripPropertyRequest(t *testing.T) {
	f := func(cidx uint8, seq, try uint64, body []byte) bool {
		env := Envelope{
			From:    id.Client(int(cidx)),
			To:      id.AppServer(1),
			Payload: Request{RID: id.ResultID{Client: id.Client(int(cidx)), Seq: seq, Try: try}, Body: body},
		}
		b, err := Encode(env)
		if err != nil {
			return false
		}
		back, err := Decode(b)
		if err != nil {
			return false
		}
		got := back.Payload.(Request)
		want := env.Payload.(Request)
		return got.RID == want.RID && bytes.Equal(got.Body, want.Body)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 500}); err != nil {
		t.Error(err)
	}
}

// TestRoundTripPropertyEstimate checks consensus message fields survive.
func TestRoundTripPropertyEstimate(t *testing.T) {
	f := func(round, ts uint32, est []byte, arr bool) bool {
		a := RegA
		if arr {
			a = RegD
		}
		env := Envelope{
			From:    id.AppServer(1),
			To:      id.AppServer(2),
			Payload: Estimate{Reg: RegKey{Array: a, RID: rid(1, 2, 3)}, Round: round, TS: ts, Est: est},
		}
		b, err := Encode(env)
		if err != nil {
			return false
		}
		back, err := Decode(b)
		if err != nil {
			return false
		}
		got := back.Payload.(Estimate)
		return got.Reg == env.Payload.(Estimate).Reg && got.Round == round && got.TS == ts && bytes.Equal(got.Est, est)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 500}); err != nil {
		t.Error(err)
	}
}

func TestKindStrings(t *testing.T) {
	for _, p := range allPayloads() {
		if s := p.Kind().String(); s == "" || s[0] == 'K' && s[1] == 'i' {
			t.Errorf("Kind %d has no mnemonic: %q", p.Kind(), s)
		}
	}
	if Kind(200).String() != "Kind(200)" {
		t.Error("unknown kind must format numerically")
	}
}

func TestDomainStrings(t *testing.T) {
	tests := []struct {
		got, want string
	}{
		{VoteYes.String(), "yes"},
		{VoteNo.String(), "no"},
		{OutcomeCommit.String(), "commit"},
		{OutcomeAbort.String(), "abort"},
		{RegA.String(), "regA"},
		{RegD.String(), "regD"},
		{OpGet.String(), "get"},
		{OpPut.String(), "put"},
		{OpAdd.String(), "add"},
		{OpCheckGE.String(), "checkge"},
		{OpSleep.String(), "sleep"},
	}
	for _, tt := range tests {
		if tt.got != tt.want {
			t.Errorf("String() = %q, want %q", tt.got, tt.want)
		}
	}
}

func TestDecisionHelpers(t *testing.T) {
	c := Decision{Result: []byte("r"), Outcome: OutcomeCommit}
	a := Decision{Outcome: OutcomeAbort}
	if !c.Committed() || a.Committed() {
		t.Error("Committed() misreports")
	}
	if c.String() == "" || a.String() == "" {
		t.Error("Decision.String must be non-empty")
	}
}

func TestRegKeyString(t *testing.T) {
	k := RegKey{Array: RegD, RID: rid(1, 2, 3)}
	if got, want := k.String(), "regD[client-1/2#3]"; got != want {
		t.Errorf("RegKey.String() = %q, want %q", got, want)
	}
}

func TestEnvelopeString(t *testing.T) {
	env := Envelope{From: id.Client(1), To: id.AppServer(2), Payload: Heartbeat{}}
	if got := env.String(); got != "client-1 -> appserver-2: Heartbeat" {
		t.Errorf("Envelope.String() = %q", got)
	}
}
