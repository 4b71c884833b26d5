package rchan

import (
	"sync"
	"testing"
	"time"

	"etx/internal/id"
	"etx/internal/msg"
	"etx/internal/transport"
)

func pairOver(t *testing.T, opts transport.Options) (*Endpoint, *Endpoint, *transport.MemNetwork) {
	t.Helper()
	return pairWith(t, opts, 10*time.Millisecond)
}

func pairWith(t *testing.T, opts transport.Options, retransmit time.Duration) (*Endpoint, *Endpoint, *transport.MemNetwork) {
	t.Helper()
	net := transport.NewMemNetwork(opts)
	t.Cleanup(net.Close)
	rawA, err := net.Attach(id.AppServer(1))
	if err != nil {
		t.Fatal(err)
	}
	rawB, err := net.Attach(id.AppServer(2))
	if err != nil {
		t.Fatal(err)
	}
	a := Wrap(rawA, retransmit)
	b := Wrap(rawB, retransmit)
	t.Cleanup(func() {
		a.Close()
		b.Close()
	})
	return a, b, net
}

func payload(seq uint64) msg.Payload {
	return msg.Decide{RID: id.ResultID{Client: id.Client(1), Seq: seq, Try: 1}, O: msg.OutcomeCommit}
}

func collect(t *testing.T, ep *Endpoint, n int, within time.Duration) []msg.Envelope {
	t.Helper()
	var out []msg.Envelope
	deadline := time.After(within)
	for len(out) < n {
		select {
		case env, ok := <-ep.Recv():
			if !ok {
				t.Fatalf("closed after %d/%d deliveries", len(out), n)
			}
			out = append(out, env)
		case <-deadline:
			t.Fatalf("timed out after %d/%d deliveries", len(out), n)
		}
	}
	return out
}

func TestDeliversOverPerfectNetwork(t *testing.T) {
	a, b, _ := pairOver(t, transport.Options{})
	for i := 0; i < 10; i++ {
		if err := a.Send(msg.Envelope{To: id.AppServer(2), Payload: payload(uint64(i))}); err != nil {
			t.Fatal(err)
		}
	}
	got := collect(t, b, 10, 5*time.Second)
	if len(got) != 10 {
		t.Fatalf("got %d", len(got))
	}
}

func TestRetransmissionBeatsLoss(t *testing.T) {
	// 40% loss: without retransmission most of 50 messages would vanish.
	a, b, _ := pairOver(t, transport.Options{LossProb: 0.4, Seed: 11})
	for i := 0; i < 50; i++ {
		if err := a.Send(msg.Envelope{To: id.AppServer(2), Payload: payload(uint64(i))}); err != nil {
			t.Fatal(err)
		}
	}
	got := collect(t, b, 50, 30*time.Second)
	seen := make(map[uint64]bool)
	for _, env := range got {
		seen[env.Payload.(msg.Decide).RID.Seq] = true
	}
	if len(seen) != 50 {
		t.Fatalf("only %d distinct messages delivered", len(seen))
	}
}

func TestDuplicateSuppression(t *testing.T) {
	// 100% duplication at the network plus retransmission pressure: each
	// logical message must still be delivered exactly once.
	a, b, _ := pairOver(t, transport.Options{DupProb: 1.0, Seed: 3})
	const n = 25
	for i := 0; i < n; i++ {
		if err := a.Send(msg.Envelope{To: id.AppServer(2), Payload: payload(uint64(i))}); err != nil {
			t.Fatal(err)
		}
	}
	got := collect(t, b, n, 15*time.Second)
	counts := make(map[uint64]int)
	for _, env := range got {
		counts[env.Payload.(msg.Decide).RID.Seq]++
	}
	// No further deliveries may trickle in.
	select {
	case env := <-b.Recv():
		counts[env.Payload.(msg.Decide).RID.Seq]++
	case <-time.After(100 * time.Millisecond):
	}
	for seq, c := range counts {
		if c != 1 {
			t.Errorf("message %d delivered %d times (integrity violated)", seq, c)
		}
	}
}

func TestHeartbeatsBypassReliability(t *testing.T) {
	a, b, _ := pairOver(t, transport.Options{})
	if err := a.Send(msg.Envelope{To: id.AppServer(2), Payload: msg.Heartbeat{Seq: 9}}); err != nil {
		t.Fatal(err)
	}
	got := collect(t, b, 1, 5*time.Second)
	if hb, ok := got[0].Payload.(msg.Heartbeat); !ok || hb.Seq != 9 {
		t.Fatalf("payload = %#v", got[0].Payload)
	}
	if a.Unacked() != 0 {
		t.Errorf("heartbeats must not be buffered for retransmission (unacked=%d)", a.Unacked())
	}
}

func TestUnackedDrainsOnAck(t *testing.T) {
	a, b, _ := pairOver(t, transport.Options{})
	for i := 0; i < 5; i++ {
		a.Send(msg.Envelope{To: id.AppServer(2), Payload: payload(uint64(i))})
	}
	collect(t, b, 5, 5*time.Second)
	deadline := time.Now().Add(5 * time.Second)
	for a.Unacked() > 0 {
		if time.Now().After(deadline) {
			t.Fatalf("unacked stuck at %d", a.Unacked())
		}
		time.Sleep(5 * time.Millisecond)
	}
}

func TestRetransmitStopsWhenInnerDies(t *testing.T) {
	a, _, net := pairOver(t, transport.Options{LossProb: 1.0, Seed: 1})
	// Everything is lost: unacked grows, retransmit loop spins.
	a.Send(msg.Envelope{To: id.AppServer(2), Payload: payload(1)})
	if a.Unacked() != 1 {
		t.Fatalf("unacked = %d", a.Unacked())
	}
	// Crash the node under the wrapper: the retransmit loop must wind down
	// without Close being called (the cluster crashes nodes this way).
	net.Crash(id.AppServer(1))
	time.Sleep(50 * time.Millisecond) // would spin forever if not stopped
}

func TestSendNilPayloadRejected(t *testing.T) {
	a, _, _ := pairOver(t, transport.Options{})
	if err := a.Send(msg.Envelope{To: id.AppServer(2)}); err == nil {
		t.Fatal("nil payload accepted")
	}
}

// restart crashes node on the network and brings it back behind a fresh
// reliable channel — a process restart that loses every channel state.
func restart(t *testing.T, net *transport.MemNetwork, old *Endpoint, node id.NodeID) *Endpoint {
	t.Helper()
	net.Crash(node)
	old.Close()
	raw, err := net.Attach(node)
	if err != nil {
		t.Fatal(err)
	}
	ep := Wrap(raw, 10*time.Millisecond)
	t.Cleanup(func() { ep.Close() })
	return ep
}

func sendN(t *testing.T, from *Endpoint, to id.NodeID, first, n int) {
	t.Helper()
	for i := first; i < first+n; i++ {
		if err := from.Send(msg.Envelope{To: to, Payload: payload(uint64(i))}); err != nil {
			t.Fatal(err)
		}
	}
}

func waitUnacked(t *testing.T, ep *Endpoint, within time.Duration) {
	t.Helper()
	deadline := time.Now().Add(within)
	for ep.Unacked() > 0 {
		if time.Now().After(deadline) {
			t.Fatalf("unacked stuck at %d", ep.Unacked())
		}
		time.Sleep(2 * time.Millisecond)
	}
}

// TestRestartedSenderIsDelivered: a restarted sender numbers its messages
// from 1 again. The receiver still holds the old incarnation's prefix, and
// must not mistake the new messages for retransmissions of the old ones.
func TestRestartedSenderIsDelivered(t *testing.T) {
	a, b, net := pairOver(t, transport.Options{})
	sendN(t, a, b.ID(), 0, 5)
	collect(t, b, 5, 5*time.Second)
	waitUnacked(t, a, 5*time.Second)

	a2 := restart(t, net, a, id.AppServer(1))
	sendN(t, a2, b.ID(), 100, 3)
	got := collect(t, b, 3, 2*time.Second)
	for i, env := range got {
		if s := env.Payload.(msg.Decide).RID.Seq; s != uint64(100+i) {
			t.Fatalf("delivery %d carried message %d, want %d", i, s, 100+i)
		}
	}
}

// TestRestartedReceiverAdvancesPrefix: a restarted receiver has no state for
// the sender. It must pick up the sender's contiguous prefix from Base so
// that its duplicate set stays compacted instead of growing by one entry per
// message.
func TestRestartedReceiverAdvancesPrefix(t *testing.T) {
	a, b, net := pairOver(t, transport.Options{})
	sendN(t, a, b.ID(), 0, 5)
	collect(t, b, 5, 5*time.Second)
	waitUnacked(t, a, 5*time.Second)

	b2 := restart(t, net, b, id.AppServer(2))
	const n = 1000
	sendN(t, a, b2.ID(), 0, n)
	collect(t, b2, n, 10*time.Second)
	waitUnacked(t, a, 5*time.Second)

	b2.mu.Lock()
	defer b2.mu.Unlock()
	if len(b2.in) != 1 {
		t.Fatalf("receiver tracks %d sender incarnations, want 1", len(b2.in))
	}
	for _, st := range b2.in {
		if st.low != 5+n || len(st.seen) != 0 {
			t.Fatalf("low=%d seen=%d after %d messages, want low=%d seen=0", st.low, len(st.seen), n, 5+n)
		}
	}
}

// TestStaleIncarnationNeverRedelivered feeds hand-made frames from two
// incarnations of one sender, interleaved the way a slow connection of the
// dead incarnation can interleave with the new one: every (incarnation,
// sequence number) is delivered exactly once, whatever the order.
func TestStaleIncarnationNeverRedelivered(t *testing.T) {
	net := transport.NewMemNetwork(transport.Options{})
	t.Cleanup(net.Close)
	raw, err := net.Attach(id.AppServer(1))
	if err != nil {
		t.Fatal(err)
	}
	rawB, err := net.Attach(id.AppServer(2))
	if err != nil {
		t.Fatal(err)
	}
	b := Wrap(rawB, 10*time.Millisecond)
	t.Cleanup(func() { b.Close() })

	frame := func(inc, seq, base uint64) {
		t.Helper()
		d := msg.RData{Inc: inc, Seq: seq, Base: base, Inner: payload(inc*100 + seq)}
		if err := raw.Send(msg.Envelope{To: b.ID(), Payload: d}); err != nil {
			t.Fatal(err)
		}
	}
	frame(1, 1, 1)
	frame(1, 2, 1)
	frame(2, 1, 1) // the sender restarted
	frame(1, 2, 1) // stale retransmissions of the dead incarnation
	frame(1, 1, 1)
	frame(1, 3, 3) // a stale frame never delivered before
	frame(2, 1, 1)
	frame(2, 2, 1)
	frame(1, 3, 3)
	want := []uint64{101, 102, 201, 103, 202}
	got := collect(t, b, len(want), 5*time.Second)
	select {
	case env := <-b.Recv():
		got = append(got, env)
	case <-time.After(50 * time.Millisecond):
	}
	if len(got) != len(want) {
		t.Fatalf("%d deliveries, want %d", len(got), len(want))
	}
	for i, env := range got {
		if s := env.Payload.(msg.Decide).RID.Seq; s != want[i] {
			t.Fatalf("delivery %d = message %d, want %d", i, s, want[i])
		}
	}
}

// TestAcksAreCumulativePerTick pins the ack cost: a burst of 1000 messages
// is acknowledged by about one RAck per tick of the retransmit clock, not
// one per message, the sender's buffer still drains completely, and no
// message is resent. The period is long enough that the burst is delivered
// well inside one tick, so every ack beats the first resend.
func TestAcksAreCumulativePerTick(t *testing.T) {
	a, b, net := pairWith(t, transport.Options{}, 400*time.Millisecond)
	var mu sync.Mutex
	var acks, resends int
	seen := make(map[uint64]bool)
	net.AddSniffer(func(ev transport.SniffEvent) {
		mu.Lock()
		defer mu.Unlock()
		switch p := ev.Payload.(type) {
		case msg.RAck:
			acks++
		case msg.RData:
			if seen[p.Seq] {
				resends++
			}
			seen[p.Seq] = true
		}
	})
	const n = 1000
	start := time.Now()
	sendN(t, a, b.ID(), 0, n)
	collect(t, b, n, 10*time.Second)
	waitUnacked(t, a, 5*time.Second)
	ticks := int(time.Since(start)/(a.retransmit/2)) + 1

	mu.Lock()
	defer mu.Unlock()
	if acks == 0 || acks > ticks+1 {
		t.Errorf("%d RAck frames for %d messages over %d ticks, want at most one per tick", acks, n, ticks)
	}
	if acks*10 > n {
		t.Errorf("%d RAck frames for %d messages: acks are not cumulative", acks, n)
	}
	if resends != 0 {
		t.Errorf("%d resends on a loss-free network", resends)
	}
}

// TestAckOfAnotherIncarnationIgnored: an ack names the sender incarnation
// it acknowledges. One addressed to another incarnation (a predecessor's,
// still in flight when the sender restarted) must not release the current
// incarnation's messages, or a lost one would never be resent.
func TestAckOfAnotherIncarnationIgnored(t *testing.T) {
	net := transport.NewMemNetwork(transport.Options{})
	t.Cleanup(net.Close)
	rawA, err := net.Attach(id.AppServer(1))
	if err != nil {
		t.Fatal(err)
	}
	rawB, err := net.Attach(id.AppServer(2))
	if err != nil {
		t.Fatal(err)
	}
	a := Wrap(rawA, time.Hour)
	t.Cleanup(func() { a.Close() })

	sendN(t, a, rawB.ID(), 0, 3)
	var inc uint64
	for i := 0; i < 3; i++ {
		select {
		case env := <-rawB.Recv():
			inc = env.Payload.(msg.RData).Inc
		case <-time.After(5 * time.Second):
			t.Fatal("RData never arrived")
		}
	}
	for _, ack := range []msg.RAck{{Inc: inc + 1, Seq: 3}, {Inc: inc, Seq: 1}} {
		if err := rawB.Send(msg.Envelope{To: a.ID(), Payload: ack}); err != nil {
			t.Fatal(err)
		}
	}
	deadline := time.Now().Add(5 * time.Second)
	for a.Unacked() == 3 {
		if time.Now().After(deadline) {
			t.Fatal("no ack was applied")
		}
		time.Sleep(time.Millisecond)
	}
	if n := a.Unacked(); n != 2 {
		t.Fatalf("unacked = %d after an ack of seq 1, want 2 (an ack of another incarnation was applied)", n)
	}
}
