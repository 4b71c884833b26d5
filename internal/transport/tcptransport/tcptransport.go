// Package tcptransport implements the transport abstraction over real TCP,
// for multi-process deployments (the cmd/ binaries). Frames are
// length-prefixed msg.Encode payloads; each direction of a link dials its
// own connection lazily and drops messages on connection failure — the
// fair-loss behaviour the reliable-channel layer (internal/rchan) is
// designed to sit on.
//
// # Send path
//
// Send never touches the socket. It encodes the envelope into a pooled
// frame and hands the frame to the destination peer's writer goroutine
// through a bounded queue, returning immediately: a stalled or unreachable
// peer can never wedge a sending goroutine. The writer drains whatever is
// queued and flushes the whole drain to the kernel in one scatter-gather
// writev (net.Buffers) without coalescing the frames through a copy; a
// build-tagged fallback (-tags etx_nowritev, writev_fallback.go) coalesces
// into a single buffered write for platforms where writev buys nothing.
// The writer is self-clocked: after the first frame of a drain arrives it
// yields once, so frames that other goroutines enqueue meanwhile share the
// flush, then takes everything queued — no timer and no window. Every
// kernel flush runs under Config.WriteTimeout — a peer that accepts
// the connection but stops reading trips the deadline, the connection is
// dropped (fair loss, same as the redial-on-error path) and the next drain
// redials. A full queue likewise drops the frame rather than blocking the
// sender.
//
// # Receive path
//
// Each incoming connection is read through a retainedReadBuf-sized buffered
// reader, so one read(2) takes in a whole writev drain and the frames in it
// are split out of user-space memory. A frame that fits the buffer is
// decoded in place (msg.Decode copies every variable-length field out, so
// the buffer is safely recycled for the next frame); a larger one gets a
// one-shot allocation.
//
// Wire pressure is counted (frames/bytes in both directions, kernel
// flushes and reads, queue drops, connection drops, coalescing copies —
// zero on the writev path) and exposed through Stats/WireStats.
package tcptransport

import (
	"bufio"
	"context"
	"encoding/binary"
	"fmt"
	"io"
	"net"
	"runtime"
	"sort"
	"sync"
	"time"

	"etx/internal/id"
	"etx/internal/metrics"
	"etx/internal/msg"
	"etx/internal/queue"
	"etx/internal/transport"
)

// maxFrame bounds a frame to guard against corrupted length prefixes.
const maxFrame = 32 << 20

// retainedReadBuf sizes the read buffer a connection keeps across frames;
// frames above it get a one-shot allocation instead of pinning megabytes on
// every idle connection.
const retainedReadBuf = 64 << 10

// Config parameterizes a TCP endpoint.
type Config struct {
	// Self is this process's identity.
	Self id.NodeID
	// Listen is the local listen address (host:port).
	Listen string
	// Peers maps every other node to its listen address.
	Peers map[id.NodeID]string
	// DialTimeout bounds connection attempts. Default 2s.
	DialTimeout time.Duration
	// WriteTimeout bounds one kernel flush (the writev covering a whole
	// queue drain). A peer that stops reading trips the deadline and the
	// connection is dropped — fair loss — instead of wedging the writer
	// while frames pile up behind it. Default 5s.
	WriteTimeout time.Duration
	// QueueDepth bounds each peer's outbound frame queue; a send finding
	// the queue full drops the frame (fair loss, counted). Default 1024.
	QueueDepth int
	// MaxWritev caps the frames one kernel flush covers. Default 64;
	// 1 reproduces the historical one-write-per-frame transport (the
	// wire benchmark's baseline).
	MaxWritev int
}

func (c *Config) setDefaults() {
	if c.DialTimeout <= 0 {
		c.DialTimeout = 2 * time.Second
	}
	if c.WriteTimeout <= 0 {
		c.WriteTimeout = 5 * time.Second
	}
	if c.QueueDepth <= 0 {
		c.QueueDepth = 1024
	}
	if c.MaxWritev <= 0 {
		c.MaxWritev = 64
	}
}

// Endpoint is a TCP-backed transport.Endpoint.
type Endpoint struct {
	cfg Config
	ln  net.Listener

	// dialCtx cancels in-flight dials on Close so a writer blocked in a
	// connection attempt cannot delay teardown.
	dialCtx    context.Context
	dialCancel context.CancelFunc

	mu       sync.Mutex
	shut     bool // guarded by mu — Close has begun; no new writers
	writers  map[id.NodeID]*peerConn
	accepted map[net.Conn]bool

	inbox  *queue.Queue[msg.Envelope]
	recv   chan msg.Envelope
	done   chan struct{}
	wg     sync.WaitGroup
	closed sync.Once

	// Wire counters, snapshotted by Stats (etxlint statswired).
	framesSent  metrics.Counter
	bytesSent   metrics.Counter
	framesRecv  metrics.Counter
	bytesRecv   metrics.Counter
	writevCalls metrics.Counter // kernel flushes (one writev per queue drain)
	readCalls   metrics.Counter // kernel reads on incoming connections
	coalesced   metrics.Counter // frames copied into a coalescing buffer (fallback only)
	queueDrops  metrics.Counter // frames dropped on a full peer queue
	connDrops   metrics.Counter // connections dropped on write error or deadline
	queued      metrics.Gauge   // frames currently queued across peers
}

// peerConn is one peer's writer: a bounded frame queue drained by a
// dedicated goroutine that owns the outgoing connection. The writer
// persists across redials; only the connection is dropped on error.
type peerConn struct {
	peer id.NodeID
	q    chan *[]byte

	mu sync.Mutex
	c  net.Conn // guarded by mu — live conn, nil between drops and redials
}

func (pc *peerConn) conn() net.Conn {
	pc.mu.Lock()
	defer pc.mu.Unlock()
	return pc.c
}

func (pc *peerConn) setConn(c net.Conn) {
	pc.mu.Lock()
	pc.c = c
	pc.mu.Unlock()
}

// closeConn drops the live connection (if any); the writer redials on the
// next drain.
func (pc *peerConn) closeConn() {
	pc.mu.Lock()
	c := pc.c
	pc.c = nil
	pc.mu.Unlock()
	if c != nil {
		c.Close()
	}
}

// framePool recycles frame buffers across Sends; the batched hot path sends
// thousands of envelopes per second and must not allocate one slice each.
// Ownership transfers with the frame: Send fills a frame and enqueues it,
// the writer returns it to the pool only after the kernel flush that
// consumed it (or Send itself, when the queue is full).
var framePool = sync.Pool{
	New: func() any {
		b := make([]byte, 0, 4096)
		return &b
	},
}

func putFrame(f *[]byte) {
	*f = (*f)[:0]
	framePool.Put(f)
}

// Listen starts a TCP endpoint for cfg.Self on cfg.Listen.
func Listen(cfg Config) (*Endpoint, error) {
	cfg.setDefaults()
	ln, err := net.Listen("tcp", cfg.Listen)
	if err != nil {
		return nil, fmt.Errorf("tcptransport: listen %s: %w", cfg.Listen, err)
	}
	ep := &Endpoint{
		cfg:      cfg,
		ln:       ln,
		writers:  make(map[id.NodeID]*peerConn),
		accepted: make(map[net.Conn]bool),
		inbox:    queue.New[msg.Envelope](),
		recv:     make(chan msg.Envelope, 64),
		done:     make(chan struct{}),
	}
	ep.dialCtx, ep.dialCancel = context.WithCancel(context.Background())
	ep.wg.Add(2)
	go ep.acceptLoop()
	go ep.pump()
	return ep, nil
}

// Addr returns the bound listen address (useful with ":0").
func (ep *Endpoint) Addr() string { return ep.ln.Addr().String() }

// SetPeers replaces the address book. Two-pass wiring support: listen on
// ":0" everywhere first, gather the bound addresses, then install the
// complete book before the protocol starts.
func (ep *Endpoint) SetPeers(book map[id.NodeID]string) {
	cp := make(map[id.NodeID]string, len(book))
	for k, v := range book {
		cp[k] = v
	}
	ep.mu.Lock()
	ep.cfg.Peers = cp
	ep.mu.Unlock()
}

// ID implements transport.Endpoint.
func (ep *Endpoint) ID() id.NodeID { return ep.cfg.Self }

// Recv implements transport.Endpoint.
func (ep *Endpoint) Recv() <-chan msg.Envelope { return ep.recv }

// Close implements transport.Endpoint.
func (ep *Endpoint) Close() error {
	var err error
	ep.closed.Do(func() {
		ep.mu.Lock()
		ep.shut = true
		ep.mu.Unlock()
		close(ep.done)
		ep.dialCancel()
		err = ep.ln.Close()
		ep.mu.Lock()
		for _, pc := range ep.writers {
			pc.closeConn()
		}
		// Incoming connections must be closed too or their read loops would
		// block in Read forever and Wait would never return.
		for c := range ep.accepted {
			c.Close()
		}
		ep.accepted = make(map[net.Conn]bool)
		ep.mu.Unlock()
		ep.inbox.Close()
		ep.wg.Wait()
		// The writers have exited; recycle whatever they left queued.
		ep.mu.Lock()
		for _, pc := range ep.writers {
			for {
				select {
				case f := <-pc.q:
					putFrame(f)
				default:
					goto drained
				}
			}
		drained:
		}
		ep.writers = make(map[id.NodeID]*peerConn)
		ep.mu.Unlock()
	})
	return err
}

// Send implements transport.Endpoint. It encodes the envelope into a pooled
// frame and enqueues it on the destination's writer without ever blocking:
// an unreachable, stalled or backlogged peer silently drops the message
// (fair-loss link). The steady state allocates nothing per send.
func (ep *Endpoint) Send(env msg.Envelope) error {
	select {
	case <-ep.done:
		return transport.ErrClosed
	default:
	}
	env.From = ep.cfg.Self
	bufp := framePool.Get().(*[]byte)
	// Reserve the 4-byte length prefix, then encode directly behind it.
	frame := append((*bufp)[:0], 0, 0, 0, 0)
	frame, err := msg.AppendEncode(frame, env)
	if err != nil {
		putFrame(bufp)
		return fmt.Errorf("tcptransport: encode: %w", err)
	}
	binary.BigEndian.PutUint32(frame, uint32(len(frame)-4))
	*bufp = frame
	pc, err := ep.writer(env.To)
	if err != nil {
		putFrame(bufp)
		return err
	}
	select {
	case pc.q <- bufp:
		ep.queued.Inc()
	default:
		// Bounded queue full: the peer is slower than the senders. Fair loss.
		ep.queueDrops.Inc()
		putFrame(bufp)
	}
	return nil
}

// writer returns (starting if needed) the writer goroutine for peer. The
// writer outlives individual connections: it redials after drops and exits
// only when the endpoint closes.
func (ep *Endpoint) writer(peer id.NodeID) (*peerConn, error) {
	ep.mu.Lock()
	defer ep.mu.Unlock()
	if ep.shut {
		return nil, transport.ErrClosed
	}
	pc := ep.writers[peer]
	if pc == nil {
		pc = &peerConn{peer: peer, q: make(chan *[]byte, ep.cfg.QueueDepth)}
		ep.writers[peer] = pc
		ep.wg.Add(1)
		go ep.writeLoop(pc)
	}
	return pc, nil
}

// writeLoop drains one peer's frame queue and flushes each drain to the
// kernel in a single vectored write. Dial failures and write errors drop
// the drained frames (fair loss) and the next drain starts over with a
// fresh connection attempt.
func (ep *Endpoint) writeLoop(pc *peerConn) {
	defer ep.wg.Done()
	defer pc.closeConn()
	frames := make([]*[]byte, 0, ep.cfg.MaxWritev)
	for {
		frames = frames[:0]
		select {
		case f := <-pc.q:
			frames = append(frames, f)
		case <-ep.done:
			return
		}
		// Self-clocked drain: yield once so goroutines about to send to this
		// peer can enqueue, then everything queued behind the first frame
		// rides the same kernel flush.
		if ep.cfg.MaxWritev > 1 {
			runtime.Gosched()
		}
	drain:
		for len(frames) < ep.cfg.MaxWritev {
			select {
			case f := <-pc.q:
				frames = append(frames, f)
			default:
				break drain
			}
		}
		ep.queued.Add(-int64(len(frames)))
		c := pc.conn()
		if c == nil {
			c = ep.dial(pc)
		}
		if c != nil {
			if err := ep.flush(c, frames); err != nil {
				// Broken or stalled link (the deadline fired): fair loss.
				ep.connDrops.Inc()
				pc.closeConn()
			}
		}
		for _, f := range frames {
			putFrame(f)
		}
	}
}

// dial attempts the outgoing connection for pc, returning nil on failure
// (the drained frames are then dropped — fair loss).
func (ep *Endpoint) dial(pc *peerConn) net.Conn {
	ep.mu.Lock()
	addr, ok := ep.cfg.Peers[pc.peer]
	ep.mu.Unlock()
	if !ok {
		return nil
	}
	d := net.Dialer{Timeout: ep.cfg.DialTimeout}
	c, err := d.DialContext(ep.dialCtx, "tcp", addr)
	if err != nil {
		return nil
	}
	pc.setConn(c)
	return c
}

func (ep *Endpoint) acceptLoop() {
	defer ep.wg.Done()
	for {
		c, err := ep.ln.Accept()
		if err != nil {
			return // listener closed
		}
		ep.mu.Lock()
		ep.accepted[c] = true
		ep.mu.Unlock()
		ep.wg.Add(1)
		go func() {
			defer ep.wg.Done()
			ep.readLoop(c)
		}()
	}
}

// readLoop decodes frames from one incoming connection until it breaks.
// The connection is read through a buffered reader, so a writev drain of
// many frames costs one kernel read. A frame that fits the buffer is decoded
// in place: msg.Decode copies every variable-length field out of its input,
// so the buffer's reuse for the next frame can never corrupt a delivered
// envelope.
func (ep *Endpoint) readLoop(c net.Conn) {
	defer func() {
		c.Close()
		ep.mu.Lock()
		delete(ep.accepted, c)
		ep.mu.Unlock()
	}()
	br := bufio.NewReaderSize(countedReader{r: c, ep: ep}, retainedReadBuf)
	var lenBuf [4]byte
	for {
		select {
		case <-ep.done:
			return
		default:
		}
		if _, err := io.ReadFull(br, lenBuf[:]); err != nil {
			return
		}
		n := int(binary.BigEndian.Uint32(lenBuf[:]))
		if n == 0 || n > maxFrame {
			return
		}
		var b []byte
		var err error
		inPlace := n <= br.Size()
		if inPlace {
			b, err = br.Peek(n)
		} else {
			// Oversize frame: one-shot allocation, the retained buffer
			// stays small.
			b = make([]byte, n)
			_, err = io.ReadFull(br, b)
		}
		if err != nil {
			return
		}
		ep.framesRecv.Inc()
		ep.bytesRecv.Add(uint64(n) + 4)
		env, err := msg.Decode(b)
		if inPlace {
			// Release the decoded frame's bytes; Peek returned n of them, so
			// Discard cannot fail.
			_, _ = br.Discard(n)
		}
		if err != nil {
			continue // corrupted frame: drop, keep the stream
		}
		ep.inbox.Push(env)
	}
}

// countedReader counts the kernel reads made on an incoming connection.
type countedReader struct {
	r  io.Reader
	ep *Endpoint
}

func (cr countedReader) Read(p []byte) (int, error) {
	cr.ep.readCalls.Inc()
	return cr.r.Read(p)
}

// pump moves delivered messages to the recv channel.
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

// Stats is a point-in-time snapshot of an endpoint's wire counters.
type Stats struct {
	FramesSent  uint64 // frames handed to the kernel
	BytesSent   uint64 // bytes handed to the kernel (prefix included)
	FramesRecv  uint64 // frames read off incoming connections
	BytesRecv   uint64 // bytes read off incoming connections (prefix included)
	WritevCalls uint64 // kernel flushes: one vectored write per queue drain
	ReadCalls   uint64 // kernel reads on incoming connections
	Coalesced   uint64 // frames copied through a coalescing buffer (0 on the writev path)
	QueueDrops  uint64 // frames dropped because a peer queue was full
	ConnDrops   uint64 // connections dropped on write error or expired deadline
	Queued      int64  // frames currently queued across all peers
}

// Stats snapshots the endpoint's wire counters.
func (ep *Endpoint) Stats() Stats {
	return Stats{
		FramesSent:  ep.framesSent.Load(),
		BytesSent:   ep.bytesSent.Load(),
		FramesRecv:  ep.framesRecv.Load(),
		BytesRecv:   ep.bytesRecv.Load(),
		WritevCalls: ep.writevCalls.Load(),
		ReadCalls:   ep.readCalls.Load(),
		Coalesced:   ep.coalesced.Load(),
		QueueDrops:  ep.queueDrops.Load(),
		ConnDrops:   ep.connDrops.Load(),
		Queued:      ep.queued.Load(),
	}
}

// FramesPerWritev returns the mean frames one kernel flush covered — the
// vectored-write amortization factor (1.0 means every frame paid its own
// syscall).
func (s Stats) FramesPerWritev() float64 {
	if s.WritevCalls == 0 {
		return 0
	}
	return float64(s.FramesSent) / float64(s.WritevCalls)
}

// FramesPerRead returns the mean frames one kernel read took in — the
// receive-side counterpart of FramesPerWritev (1.0 means every frame paid
// its own read).
func (s Stats) FramesPerRead() float64 {
	if s.ReadCalls == 0 {
		return 0
	}
	return float64(s.FramesRecv) / float64(s.ReadCalls)
}

// String renders the snapshot on one line.
func (s Stats) String() string {
	return fmt.Sprintf("sent=%d/%dB recv=%d/%dB writev=%d (%.1f frames/call) read=%d (%.1f frames/call) coalesced=%d qdrop=%d cdrop=%d queued=%d",
		s.FramesSent, s.BytesSent, s.FramesRecv, s.BytesRecv,
		s.WritevCalls, s.FramesPerWritev(), s.ReadCalls, s.FramesPerRead(),
		s.Coalesced, s.QueueDrops, s.ConnDrops, s.Queued)
}

// Vectored reports whether this binary's flush path is the scatter-gather
// writev implementation (false under -tags etx_nowritev); benchmarks gate
// their zero-copy assertions on it.
func Vectored() bool { return vectoredWrites }

// WireStats renders the current wire counters for liveness diagnostics;
// core.DebugTry folds it into its dump through an interface assertion, so
// the protocol packages need no dependency on this one.
func (ep *Endpoint) WireStats() string { return ep.Stats().String() }

// ParsePeers parses an address book of the form "1=host:port,2=host:port"
// for the given role (cmd flag support).
func ParsePeers(role id.Role, spec string) (map[id.NodeID]string, error) {
	out := make(map[id.NodeID]string)
	if spec == "" {
		return out, nil
	}
	for _, part := range splitComma(spec) {
		var idx int
		var addr string
		if n, err := fmt.Sscanf(part, "%d=%s", &idx, &addr); n != 2 || err != nil {
			return nil, fmt.Errorf("tcptransport: malformed peer %q (want index=host:port)", part)
		}
		out[id.NodeID{Role: role, Index: idx}] = addr
	}
	return out, nil
}

func splitComma(s string) []string {
	var out []string
	start := 0
	for i := 0; i <= len(s); i++ {
		if i == len(s) || s[i] == ',' {
			if i > start {
				out = append(out, s[start:i])
			}
			start = i + 1
		}
	}
	return out
}

// SortedPeers returns the node ids of an address book ordered by (role,
// index) — the deterministic membership order every process must agree on
// (AppServers[0] is the default primary and round-1 consensus coordinator).
func SortedPeers(book map[id.NodeID]string) []id.NodeID {
	out := make([]id.NodeID, 0, len(book))
	for k := range book {
		out = append(out, k)
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Less(out[j]) })
	return out
}

// Merge combines address books.
func Merge(books ...map[id.NodeID]string) map[id.NodeID]string {
	out := make(map[id.NodeID]string)
	for _, b := range books {
		for k, v := range b {
			out[k] = v
		}
	}
	return out
}

// Compile-time interface check.
var _ transport.Endpoint = (*Endpoint)(nil)
