// Package rchan implements the paper's reliable channels over a lossy,
// duplicating network, exactly the way Section 5 describes: "the abstraction
// of reliable channels is implemented by retransmitting messages and tracking
// duplicates".
//
// Wrap turns any transport.Endpoint into one whose sends satisfy the
// termination property (if neither endpoint crashes, the message is
// eventually delivered: unacknowledged messages are retransmitted forever)
// and whose deliveries satisfy integrity (duplicates are suppressed by
// per-sender sequence numbers).
//
// # Acknowledgements and retransmission
//
// Both run on one clock that ticks every half retransmit period. A receiver
// tracks, per sender, the contiguous prefix of sequence numbers it has
// delivered; on each tick it sends one cumulative RAck for that prefix to
// every sender whose prefix moved or that sent it a duplicate (a duplicate
// means an ack went missing). The sender keeps its unacknowledged messages
// in sequence order, drops the prefix an ack covers, and on each tick
// resends only the messages that have waited a whole tick since they were
// last sent (the receiver acks within a tick), so each unacknowledged
// message is resent once per retransmit period. A burst of messages costs
// one ack frame per tick, not one per message, and a young message is never
// resent.
//
// # Incarnations
//
// Every Endpoint draws an incarnation number from crypto/rand and stamps it
// on its RData; an RAck echoes it. Sequence numbers restart at 1 in each
// incarnation, and the receiver tracks duplicates per (sender,
// incarnation), so a restarted sender is never mistaken for its
// predecessor's retransmissions, and a stale frame of a dead incarnation is
// still delivered at most once. That takes keeping a dead incarnation's
// receive state (its prefix and the few sequence numbers delivered above
// it): one small entry per restart of a peer.
//
// Each RData also carries Base, the lowest sequence number its sender still
// holds unacknowledged: a restarted receiver, which has no state, starts its
// prefix at Base-1, so its cumulative acks advance from the first frame on.
// Messages that an earlier receiver incarnation delivered but had not yet
// acknowledged are delivered again to the restarted one, which lost them
// with its state.
//
// Heartbeats deliberately bypass the layer: retransmitting a stale heartbeat
// would defeat failure detection, and the detector tolerates loss by design.
package rchan

import (
	"crypto/rand"
	"encoding/binary"
	"slices"
	"sync"
	"time"

	"etx/internal/id"
	"etx/internal/msg"
	"etx/internal/queue"
	"etx/internal/transport"
)

// resendTicks is how many clock ticks (half retransmit periods) a message
// waits before a resend: a message sent between ticks t and t+1 is resent at
// tick t+2, so a lost message is resent one retransmit period after the
// tick it was sent in, and then every period. By then it is more than half
// a period old, longer than the receiver waits before acking it, so a
// message still unacknowledged that late was lost or lost its ack.
const resendTicks = 2

// Endpoint is a reliable-channel wrapper around an inner endpoint. It
// implements transport.Endpoint.
type Endpoint struct {
	inner      transport.Endpoint
	retransmit time.Duration
	inc        uint64 // this channel's incarnation, stamped on every RData

	mu   sync.Mutex
	tick uint64 // ticks of the retransmit clock so far
	out  map[id.NodeID]*sendState
	in   map[sender]*recvState

	inbox     *queue.Queue[msg.Envelope]
	recv      chan msg.Envelope
	done      chan struct{}
	innerDone chan struct{} // closed when the inner endpoint's Recv closes
	wg        sync.WaitGroup

	closeOnce sync.Once
}

type sendState struct {
	next    uint64
	unacked []pending // in sequence order
}

// pending is one sent, unacknowledged message.
type pending struct {
	seq  uint64
	p    msg.Payload
	sent uint64 // tick of the last (re)transmission
}

// sender names one incarnation of a peer's sending side.
type sender struct {
	from id.NodeID
	inc  uint64
}

type recvState struct {
	// low is the contiguous delivered prefix: every sequence number <= low
	// was delivered (or acknowledged before this receiver started); seen
	// holds the delivered ones above it.
	low  uint64
	seen map[uint64]bool
	// ackDue is set when low moved or a duplicate arrived since the last ack.
	ackDue bool
}

// Wrap layers reliable-channel semantics over inner. retransmit is the
// resend period for unacknowledged messages (default 25ms); acks go out on
// a clock of half that period.
func Wrap(inner transport.Endpoint, retransmit time.Duration) *Endpoint {
	if retransmit <= 0 {
		retransmit = 25 * time.Millisecond
	}
	var b [8]byte
	_, _ = rand.Read(b[:]) // never fails: crypto/rand.Read crashes the process instead
	ep := &Endpoint{
		inner:      inner,
		retransmit: retransmit,
		inc:        binary.BigEndian.Uint64(b[:]),
		out:        make(map[id.NodeID]*sendState),
		in:         make(map[sender]*recvState),
		inbox:      queue.New[msg.Envelope](),
		recv:       make(chan msg.Envelope, 64),
		done:       make(chan struct{}),
		innerDone:  make(chan struct{}),
	}
	ep.wg.Add(3)
	go ep.recvLoop()
	go ep.clockLoop()
	go ep.pump()
	return ep
}

// ID implements transport.Endpoint.
func (ep *Endpoint) ID() id.NodeID { return ep.inner.ID() }

// Inner exposes the wrapped endpoint so diagnostics can reach
// transport-specific state (wire counters) through the reliable layer.
func (ep *Endpoint) Inner() transport.Endpoint { return ep.inner }

// Recv implements transport.Endpoint.
func (ep *Endpoint) Recv() <-chan msg.Envelope { return ep.recv }

// Send implements transport.Endpoint. Non-heartbeat payloads are sequenced,
// buffered and retransmitted until acknowledged.
func (ep *Endpoint) Send(env msg.Envelope) error {
	if env.Payload == nil {
		return transport.ErrClosed
	}
	if env.Payload.Kind() == msg.KindHeartbeat {
		return ep.inner.Send(env)
	}
	ep.mu.Lock()
	st, ok := ep.out[env.To]
	if !ok {
		st = &sendState{}
		ep.out[env.To] = st
	}
	st.next++
	seq := st.next
	st.unacked = append(st.unacked, pending{seq: seq, p: env.Payload, sent: ep.tick})
	base := st.unacked[0].seq
	ep.mu.Unlock()
	return ep.inner.Send(msg.Envelope{To: env.To, Payload: msg.RData{Inc: ep.inc, Seq: seq, Base: base, Inner: env.Payload}})
}

// Close implements transport.Endpoint.
func (ep *Endpoint) Close() error {
	var err error
	ep.closeOnce.Do(func() {
		close(ep.done)
		err = ep.inner.Close()
		ep.inbox.Close()
		ep.wg.Wait()
	})
	return err
}

// Unacked returns the number of buffered unacknowledged messages
// (observability for tests and memory ablations).
func (ep *Endpoint) Unacked() int {
	ep.mu.Lock()
	defer ep.mu.Unlock()
	n := 0
	for _, st := range ep.out {
		n += len(st.unacked)
	}
	return n
}

func (ep *Endpoint) recvLoop() {
	defer ep.wg.Done()
	for {
		select {
		case env, ok := <-ep.inner.Recv():
			if !ok {
				// The inner endpoint died (node crash): stop retransmitting
				// and drain out.
				close(ep.innerDone)
				ep.inbox.Close()
				return
			}
			ep.handle(env)
		case <-ep.done:
			return
		}
	}
}

func (ep *Endpoint) handle(env msg.Envelope) {
	//etxlint:allow kindswitch — the reliable channel only interprets its own framing (RData/RAck); every other kind is opaque cargo inside RData.Inner
	switch p := env.Payload.(type) {
	case msg.RData:
		if ep.firstDelivery(env.From, p) {
			ep.inbox.Push(msg.Envelope{From: env.From, To: env.To, Payload: p.Inner})
		}
	case msg.RAck:
		if p.Inc != ep.inc {
			return // acknowledges an earlier incarnation's messages
		}
		ep.mu.Lock()
		if st, ok := ep.out[env.From]; ok {
			n := 0
			for n < len(st.unacked) && st.unacked[n].seq <= p.Seq {
				n++
			}
			st.unacked = slices.Delete(st.unacked, 0, n)
		}
		ep.mu.Unlock()
	default:
		// Unsequenced traffic (heartbeats) passes straight through.
		ep.inbox.Push(env)
	}
}

// firstDelivery records d from peer and reports whether it is the first
// copy of its (incarnation, sequence number). The seen set is compacted by
// advancing low over contiguous runs.
func (ep *Endpoint) firstDelivery(from id.NodeID, d msg.RData) bool {
	ep.mu.Lock()
	defer ep.mu.Unlock()
	st := ep.recvStateLocked(from, d.Inc)
	if d.Base > st.low+1 {
		// Everything below Base was acknowledged, to this receiver or to an
		// incarnation of it before a restart: skip the prefix.
		st.low = d.Base - 1
		for seq := range st.seen {
			if seq <= st.low {
				delete(st.seen, seq)
			}
		}
	}
	if d.Seq <= st.low || st.seen[d.Seq] {
		st.ackDue = true // the sender resent it: our ack went missing
		return false
	}
	st.seen[d.Seq] = true
	for st.seen[st.low+1] {
		st.low++
		delete(st.seen, st.low)
		st.ackDue = true
	}
	return true
}

// recvStateLocked returns the receive state for incarnation inc of peer
// from, creating it on first contact. Duplicates are tracked per
// incarnation, so this lookup is the fence: a restarted sender never meets
// its predecessor's prefix, and a stale frame of a dead incarnation still
// meets its own.
func (ep *Endpoint) recvStateLocked(from id.NodeID, inc uint64) *recvState {
	k := sender{from: from, inc: inc}
	st, ok := ep.in[k]
	if !ok {
		st = &recvState{seen: make(map[uint64]bool)}
		ep.in[k] = st
	}
	return st
}

// clockLoop ticks every half retransmit period, sending the due acks and
// resending the messages that have waited a whole tick.
func (ep *Endpoint) clockLoop() {
	defer ep.wg.Done()
	ticker := time.NewTicker(ep.retransmit / 2)
	defer ticker.Stop()
	for {
		select {
		case <-ticker.C:
			for _, env := range ep.due() {
				_ = ep.inner.Send(env)
			}
		case <-ep.innerDone:
			return
		case <-ep.done:
			return
		}
	}
}

// due advances the clock one tick and returns the frames it owes: one
// cumulative ack per sender whose prefix moved or that resent something,
// and a resend of every message that has waited a whole tick unacknowledged.
func (ep *Endpoint) due() []msg.Envelope {
	ep.mu.Lock()
	defer ep.mu.Unlock()
	ep.tick++
	var out []msg.Envelope
	for k, st := range ep.in {
		if st.ackDue {
			st.ackDue = false
			out = append(out, msg.Envelope{To: k.from, Payload: msg.RAck{Inc: k.inc, Seq: st.low}})
		}
	}
	for to, st := range ep.out {
		for i := range st.unacked {
			u := &st.unacked[i]
			if ep.tick-u.sent >= resendTicks {
				u.sent = ep.tick
				out = append(out, msg.Envelope{To: to, Payload: msg.RData{
					Inc: ep.inc, Seq: u.seq, Base: st.unacked[0].seq, Inner: u.p}})
			}
		}
	}
	return out
}

// pump moves delivered messages from the unbounded inbox to the recv channel.
func (ep *Endpoint) pump() {
	defer ep.wg.Done()
	defer close(ep.recv)
	for {
		for {
			env, ok := ep.inbox.Pop()
			if !ok {
				break
			}
			select {
			case ep.recv <- env:
			case <-ep.done:
				return
			}
		}
		select {
		case <-ep.inbox.Out():
			if ep.inbox.Closed() && ep.inbox.Len() == 0 {
				return
			}
		case <-ep.done:
			return
		}
	}
}

// Compile-time interface check.
var _ transport.Endpoint = (*Endpoint)(nil)
