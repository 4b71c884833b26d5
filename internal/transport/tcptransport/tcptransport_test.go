package tcptransport

import (
	"bytes"
	"encoding/binary"
	"net"
	"testing"
	"time"

	"etx/internal/id"
	"etx/internal/lint/leakcheck"
	"etx/internal/msg"
	"etx/internal/rchan"
)

// pairUp creates two connected endpoints on loopback. Every test that goes
// through it also asserts that Close reaps the accept/read/write goroutines
// (the leak class the golifecycle analyzer guards statically).
func pairUp(t *testing.T, a, b id.NodeID) (*Endpoint, *Endpoint) {
	t.Helper()
	leakcheck.Check(t)
	epA, err := Listen(Config{Self: a, Listen: "127.0.0.1:0"})
	if err != nil {
		t.Fatal(err)
	}
	epB, err := Listen(Config{Self: b, Listen: "127.0.0.1:0", Peers: map[id.NodeID]string{a: epA.Addr()}})
	if err != nil {
		epA.Close()
		t.Fatal(err)
	}
	epA.SetPeers(map[id.NodeID]string{b: epB.Addr()})
	t.Cleanup(func() {
		epA.Close()
		epB.Close()
	})
	return epA, epB
}

func recvOne(t *testing.T, ep *Endpoint, within time.Duration) msg.Envelope {
	t.Helper()
	select {
	case env, ok := <-ep.Recv():
		if !ok {
			t.Fatal("endpoint closed")
		}
		return env
	case <-time.After(within):
		t.Fatal("timed out waiting for delivery")
	}
	panic("unreachable")
}

func TestRoundTripOverTCP(t *testing.T) {
	a, b := pairUp(t, id.AppServer(1), id.DBServer(1))
	rid := id.ResultID{Client: id.Client(1), Seq: 1, Try: 1}
	if err := a.Send(msg.Envelope{To: b.ID(), Payload: msg.Prepare{RID: rid}}); err != nil {
		t.Fatal(err)
	}
	env := recvOne(t, b, 5*time.Second)
	if env.From != a.ID() {
		t.Errorf("From = %v", env.From)
	}
	if p, ok := env.Payload.(msg.Prepare); !ok || p.RID != rid {
		t.Errorf("payload = %#v", env.Payload)
	}
	// And the reverse direction (separate connection).
	if err := b.Send(msg.Envelope{To: a.ID(), Payload: msg.VoteMsg{RID: rid, V: msg.VoteYes, Inc: 1}}); err != nil {
		t.Fatal(err)
	}
	env = recvOne(t, a, 5*time.Second)
	if v, ok := env.Payload.(msg.VoteMsg); !ok || v.V != msg.VoteYes {
		t.Errorf("payload = %#v", env.Payload)
	}
}

func TestLargePayload(t *testing.T) {
	a, b := pairUp(t, id.AppServer(1), id.AppServer(2))
	body := bytes.Repeat([]byte("x"), 1<<20)
	rid := id.ResultID{Client: id.Client(1), Seq: 1, Try: 1}
	if err := a.Send(msg.Envelope{To: b.ID(), Payload: msg.Request{RID: rid, Body: body}}); err != nil {
		t.Fatal(err)
	}
	env := recvOne(t, b, 10*time.Second)
	req := env.Payload.(msg.Request)
	if !bytes.Equal(req.Body, body) {
		t.Fatal("1 MiB payload mangled")
	}
}

func TestSendToUnreachablePeerIsFairLoss(t *testing.T) {
	ep, err := Listen(Config{
		Self: id.AppServer(1), Listen: "127.0.0.1:0",
		Peers:       map[id.NodeID]string{id.AppServer(2): "127.0.0.1:1"}, // nothing listens there
		DialTimeout: 200 * time.Millisecond,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer ep.Close()
	// Fair loss: no error, message silently dropped.
	if err := ep.Send(msg.Envelope{To: id.AppServer(2), Payload: msg.Heartbeat{Seq: 1}}); err != nil {
		t.Fatalf("fair-loss send returned %v", err)
	}
}

func TestReconnectAfterPeerRestart(t *testing.T) {
	a, b := pairUp(t, id.AppServer(1), id.AppServer(2))
	bAddr := b.Addr()
	if err := a.Send(msg.Envelope{To: b.ID(), Payload: msg.Heartbeat{Seq: 1}}); err != nil {
		t.Fatal(err)
	}
	recvOne(t, b, 5*time.Second)

	// Restart b on the same address.
	b.Close()
	b2, err := Listen(Config{Self: id.AppServer(2), Listen: bAddr, Peers: map[id.NodeID]string{a.ID(): a.Addr()}})
	if err != nil {
		t.Fatal(err)
	}
	defer b2.Close()

	// The first send may be lost on the dead connection; retry until the
	// fresh connection delivers (exactly what rchan automates).
	deadline := time.Now().Add(10 * time.Second)
	for {
		a.Send(msg.Envelope{To: b2.ID(), Payload: msg.Heartbeat{Seq: 2}})
		select {
		case env := <-b2.Recv():
			if hb, ok := env.Payload.(msg.Heartbeat); ok && hb.Seq == 2 {
				return
			}
		case <-time.After(100 * time.Millisecond):
		}
		if time.Now().After(deadline) {
			t.Fatal("never reconnected")
		}
	}
}

func TestReliableChannelsOverTCP(t *testing.T) {
	rawA, rawB := pairUp(t, id.AppServer(1), id.AppServer(2))
	a := rchan.Wrap(rawA, 50*time.Millisecond)
	b := rchan.Wrap(rawB, 50*time.Millisecond)
	defer a.Close()
	defer b.Close()

	rid := id.ResultID{Client: id.Client(1), Seq: 1, Try: 1}
	for i := 0; i < 20; i++ {
		if err := a.Send(msg.Envelope{To: rawB.ID(), Payload: msg.Decide{RID: rid, O: msg.OutcomeCommit}}); err != nil {
			t.Fatal(err)
		}
	}
	for i := 0; i < 20; i++ {
		select {
		case env, ok := <-b.Recv():
			if !ok {
				t.Fatal("closed early")
			}
			if env.Payload.Kind() != msg.KindDecide {
				t.Fatalf("unexpected payload %v", env.Payload.Kind())
			}
		case <-time.After(5 * time.Second):
			t.Fatalf("delivery %d never arrived", i)
		}
	}
}

// TestReliableChannelsAcrossRestartsOverTCP reuses the restart rig of
// TestReconnectAfterPeerRestart under the reliable channel: first the
// sender restarts on its address, then the receiver does. A restarted
// sender numbers its messages from 1 again, below the receiver's delivered
// prefix; its new incarnation must still be delivered, exactly once and in
// full.
func TestReliableChannelsAcrossRestartsOverTCP(t *testing.T) {
	const period = 50 * time.Millisecond
	rawA, rawB := pairUp(t, id.AppServer(1), id.AppServer(2))
	a := rchan.Wrap(rawA, period)
	b := rchan.Wrap(rawB, period)
	t.Cleanup(func() { a.Close() })
	t.Cleanup(func() { b.Close() })

	send := func(from *rchan.Endpoint, to id.NodeID, first, n int) {
		t.Helper()
		for i := first; i < first+n; i++ {
			rid := id.ResultID{Client: id.Client(1), Seq: uint64(i), Try: 1}
			if err := from.Send(msg.Envelope{To: to, Payload: msg.Decide{RID: rid, O: msg.OutcomeCommit}}); err != nil {
				t.Fatal(err)
			}
		}
	}
	// expect checks that messages first..first+n-1 arrive exactly once each;
	// a reliable channel does not promise their order.
	expect := func(at *rchan.Endpoint, first, n int) {
		t.Helper()
		got := make(map[uint64]bool)
		for len(got) < n {
			select {
			case env, ok := <-at.Recv():
				if !ok {
					t.Fatal("closed early")
				}
				s := env.Payload.(msg.Decide).RID.Seq
				if s < uint64(first) || s >= uint64(first+n) || got[s] {
					t.Fatalf("delivered message %d, want each of %d..%d once", s, first, first+n-1)
				}
				got[s] = true
			case <-time.After(5 * time.Second):
				t.Fatalf("only %d of messages %d..%d arrived", len(got), first, first+n-1)
			}
		}
	}
	drained := func(ep *rchan.Endpoint) {
		t.Helper()
		deadline := time.Now().Add(10 * time.Second)
		for ep.Unacked() > 0 {
			if time.Now().After(deadline) {
				t.Fatalf("unacked stuck at %d", ep.Unacked())
			}
			time.Sleep(5 * time.Millisecond)
		}
	}
	restart := func(old *rchan.Endpoint, self id.NodeID, addr string, peer id.NodeID, peerAddr string) *rchan.Endpoint {
		t.Helper()
		old.Close()
		raw, err := Listen(Config{Self: self, Listen: addr, Peers: map[id.NodeID]string{peer: peerAddr}})
		if err != nil {
			t.Fatal(err)
		}
		ep := rchan.Wrap(raw, period)
		t.Cleanup(func() { ep.Close() })
		return ep
	}

	send(a, rawB.ID(), 0, 5)
	expect(b, 0, 5)
	drained(a)

	a = restart(a, rawA.ID(), rawA.Addr(), rawB.ID(), rawB.Addr())
	send(a, rawB.ID(), 100, 3)
	expect(b, 100, 3)
	drained(a)

	b = restart(b, rawB.ID(), rawB.Addr(), rawA.ID(), rawA.Addr())
	send(a, rawB.ID(), 5, 5)
	expect(b, 5, 5)
	drained(a)
	select {
	case env := <-b.Recv():
		t.Fatalf("extra delivery %v", env.Payload)
	case <-time.After(3 * period):
	}
}

// TestDrainIsReadInFewKernelReads writes a 64-frame drain to an endpoint in
// one kernel write and checks that the receiver took it in with far fewer
// reads than frames: the buffered reader splits frames out of user space.
func TestDrainIsReadInFewKernelReads(t *testing.T) {
	_, b := pairUp(t, id.AppServer(1), id.AppServer(2))
	const frames = 64
	var wire []byte
	for i := 0; i < frames; i++ {
		env := msg.Envelope{From: id.AppServer(1), To: b.ID(), Payload: msg.Heartbeat{Seq: uint64(i)}}
		start := len(wire)
		wire = append(wire, 0, 0, 0, 0)
		var err error
		if wire, err = msg.AppendEncode(wire, env); err != nil {
			t.Fatal(err)
		}
		binary.BigEndian.PutUint32(wire[start:], uint32(len(wire)-start-4))
	}
	c, err := net.Dial("tcp", b.Addr())
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	if _, err := c.Write(wire); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < frames; i++ {
		env := recvOne(t, b, 5*time.Second)
		if hb, ok := env.Payload.(msg.Heartbeat); !ok || hb.Seq != uint64(i) {
			t.Fatalf("frame %d = %#v", i, env.Payload)
		}
	}
	st := b.Stats()
	if st.FramesRecv != frames {
		t.Fatalf("FramesRecv = %d, want %d", st.FramesRecv, frames)
	}
	if st.FramesPerRead() < 8 {
		t.Errorf("%d frames took %d kernel reads (%.1f frames/read), want at least 8 frames per read", st.FramesRecv, st.ReadCalls, st.FramesPerRead())
	}
}

func TestParsePeers(t *testing.T) {
	book, err := ParsePeers(id.RoleAppServer, "1=127.0.0.1:7101,2=127.0.0.1:7102")
	if err != nil {
		t.Fatal(err)
	}
	if len(book) != 2 || book[id.AppServer(1)] != "127.0.0.1:7101" {
		t.Fatalf("book = %v", book)
	}
	if _, err := ParsePeers(id.RoleAppServer, "nonsense"); err == nil {
		t.Fatal("malformed spec accepted")
	}
	empty, err := ParsePeers(id.RoleAppServer, "")
	if err != nil || len(empty) != 0 {
		t.Fatalf("empty spec: %v %v", empty, err)
	}
}

func TestMerge(t *testing.T) {
	m := Merge(
		map[id.NodeID]string{id.AppServer(1): "a"},
		map[id.NodeID]string{id.DBServer(1): "b"},
		nil,
	)
	if len(m) != 2 {
		t.Fatalf("merge = %v", m)
	}
}
