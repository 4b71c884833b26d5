package core

import (
	"runtime"
	"sync"
	"testing"
	"time"

	"etx/internal/id"
	"etx/internal/msg"
	"etx/internal/transport"
)

// captureEP is a transport.Endpoint that records what Send emits. With a
// gate installed, every Send records its envelope and then blocks until the
// gate is closed, modelling a slow transport write.
type captureEP struct {
	self id.NodeID
	ch   chan msg.Envelope
	gate chan struct{}
}

func newCaptureEP(self id.NodeID) *captureEP {
	return &captureEP{self: self, ch: make(chan msg.Envelope, 256)}
}

func (c *captureEP) ID() id.NodeID { return c.self }
func (c *captureEP) Send(env msg.Envelope) error {
	c.ch <- env
	if c.gate != nil {
		<-c.gate
	}
	return nil
}
func (c *captureEP) Recv() <-chan msg.Envelope { return c.ch }
func (c *captureEP) Close() error              { return nil }

var _ transport.Endpoint = (*captureEP)(nil)

func prep(client int, seq uint64) msg.Prepare {
	return msg.Prepare{RID: id.ResultID{Client: id.Client(client), Seq: seq, Try: 1}}
}

// unpack returns the messages one envelope carries, in order.
func unpack(env msg.Envelope) []msg.Payload {
	if b, ok := env.Payload.(msg.Batch); ok {
		return b.Msgs
	}
	return []msg.Payload{env.Payload}
}

func recvEnv(t *testing.T, ep *captureEP) msg.Envelope {
	t.Helper()
	select {
	case env := <-ep.ch:
		return env
	case <-time.After(2 * time.Second):
		t.Fatal("no envelope left the aggregator")
		return msg.Envelope{}
	}
}

// TestOutAggLoneSendLeavesUnbatched: with nothing else in flight, a single
// message leaves at once and unwrapped — aggregation adds no wait, however
// the window is configured.
func TestOutAggLoneSendLeavesUnbatched(t *testing.T) {
	ep := newCaptureEP(id.AppServer(1))
	agg := newOutAgg(ep, 64)
	defer agg.stop()

	db := id.DBServer(1)
	agg.send(db, prep(1, 1))
	env := recvEnv(t, ep)
	if env.To != db {
		t.Errorf("To = %v", env.To)
	}
	if p, ok := env.Payload.(msg.Prepare); !ok || p.RID.Seq != 1 {
		t.Errorf("payload = %#v, want the unbatched Prepare", env.Payload)
	}
	select {
	case env := <-ep.ch:
		t.Errorf("unexpected second envelope %#v", env.Payload)
	case <-time.After(20 * time.Millisecond):
	}
}

// TestOutAggBatchesBehindBlockedFlush: messages sent while the flusher's
// Send is blocked leave, in order, as msg.Batch envelopes of at most
// MaxBatch messages once the transport frees up.
func TestOutAggBatchesBehindBlockedFlush(t *testing.T) {
	const maxBatch = 4
	ep := newCaptureEP(id.AppServer(1))
	ep.gate = make(chan struct{})
	agg := newOutAgg(ep, maxBatch)
	defer agg.stop()

	db := id.DBServer(1)
	agg.send(db, prep(1, 0))
	if env := recvEnv(t, ep); env.Payload != msg.Payload(prep(1, 0)) {
		t.Fatalf("first envelope = %#v, want the lone Prepare 0", env.Payload)
	}
	// The flusher is now blocked inside Send: everything below queues.
	const queued = 2*maxBatch + 3
	for i := 1; i <= queued; i++ {
		agg.send(db, prep(1, uint64(i)))
	}
	close(ep.gate)

	next := uint64(1)
	for _, want := range []int{maxBatch, maxBatch, 3} {
		env := recvEnv(t, ep)
		b, ok := env.Payload.(msg.Batch)
		if !ok {
			t.Fatalf("payload = %#v, want a msg.Batch of %d", env.Payload, want)
		}
		if len(b.Msgs) != want {
			t.Fatalf("batch carries %d msgs, want %d", len(b.Msgs), want)
		}
		for _, p := range b.Msgs {
			if pr, ok := p.(msg.Prepare); !ok || pr.RID.Seq != next {
				t.Fatalf("got %#v, want Prepare %d: order not preserved", p, next)
			}
			next++
		}
	}
}

// TestOutAggConcurrentSendersNeverReorder: many goroutines sending to the
// same destinations concurrently must see each one's messages arrive in the
// order it sent them, none lost and none duplicated.
func TestOutAggConcurrentSendersNeverReorder(t *testing.T) {
	const senders, perSender = 8, 300
	ep := newCaptureEP(id.AppServer(1))
	agg := newOutAgg(ep, 16)
	defer agg.stop()

	dbs := []id.NodeID{id.DBServer(1), id.DBServer(2)}
	var wg sync.WaitGroup
	for g := 1; g <= senders; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < perSender; i++ {
				agg.send(dbs[g%len(dbs)], prep(g, uint64(i)))
				if i%7 == 0 {
					runtime.Gosched()
				}
			}
		}()
	}

	next := make(map[id.NodeID]uint64) // client -> next expected seq
	deadline := time.After(10 * time.Second)
	for got := 0; got < senders*perSender; {
		select {
		case env := <-ep.ch:
			for _, p := range unpack(env) {
				pr := p.(msg.Prepare)
				if want := dbs[pr.RID.Client.Index%len(dbs)]; env.To != want {
					t.Fatalf("%v sent to %v, want %v", pr.RID, env.To, want)
				}
				if pr.RID.Seq != next[pr.RID.Client] {
					t.Fatalf("%v arrived when seq %d was expected: reordered", pr.RID, next[pr.RID.Client])
				}
				next[pr.RID.Client]++
				got++
			}
		case <-deadline:
			t.Fatalf("messages still missing after 10s: %v", next)
		}
	}
	wg.Wait()
}

// TestOutAggStopFlushesBuffered: stop returns only after every buffered
// message has been sent, a send issued while it waits still queues behind
// them, and later traffic goes straight to the transport.
func TestOutAggStopFlushesBuffered(t *testing.T) {
	ep := newCaptureEP(id.AppServer(1))
	ep.gate = make(chan struct{})
	agg := newOutAgg(ep, 64)

	db := id.DBServer(1)
	agg.send(db, prep(1, 0))
	recvEnv(t, ep) // the flusher is blocked in Send from here on
	for i := 1; i <= 5; i++ {
		agg.send(db, prep(1, uint64(i)))
	}
	stopped := make(chan struct{})
	go func() {
		agg.stop()
		close(stopped)
	}()
	select {
	case <-stopped:
		t.Fatal("stop returned while messages were still buffered")
	case <-time.After(20 * time.Millisecond):
	}
	queued := make(chan struct{})
	go func() {
		agg.send(db, prep(1, 6))
		close(queued)
	}()
	select {
	case <-queued:
	case <-time.After(2 * time.Second):
		t.Fatal("a send during stop went to the blocked transport instead of queueing")
	}
	close(ep.gate)
	select {
	case <-stopped:
	case <-time.After(2 * time.Second):
		t.Fatal("stop never returned")
	}
	next := uint64(1)
	for next <= 6 {
		select {
		case env := <-ep.ch:
			for _, p := range unpack(env) {
				if pr := p.(msg.Prepare); pr.RID.Seq != next {
					t.Fatalf("got Prepare %d, want %d", pr.RID.Seq, next)
				}
				next++
			}
		default:
			t.Fatalf("stop returned before Prepare %d was sent", next)
		}
	}

	agg.send(db, prep(1, 7))
	select {
	case env := <-ep.ch:
		if p, ok := env.Payload.(msg.Prepare); !ok || p.RID.Seq != 7 {
			t.Errorf("payload = %#v, want Prepare 7 sent directly", env.Payload)
		}
	default:
		t.Fatal("send after stop was not sent directly")
	}
}
