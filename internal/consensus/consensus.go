// Package consensus implements Chandra–Toueg ◊S rotating-coordinator
// consensus among the application servers, the substrate the paper assumes
// for its wo-registers ("every application server would have a copy of the
// register ... writing a value comes down to proposing that value for the
// consensus protocol, e.g. [4]").
//
// One Node runs on each application server and multiplexes any number of
// independent consensus instances, keyed by msg.RegKey. Two keyspaces exist:
//
//   - Register instances (regA[j]/regD[j]): one instance per wo-register,
//     the paper's original one-instance-per-write discipline.
//   - Batch-log slots (msg.SlotKey(n)): cohort consensus. The decided value
//     of slot n is an ordered batch of register operations (msg.RegOp); every
//     node applies decided slots strictly in slot order, deciding each named
//     register with the first value written to it across the whole slot
//     sequence. Because application order is the agreed slot order, the
//     first-write-wins outcome of every register is identical on every node
//     — batch consensus preserves wo-register semantics exactly, while one
//     instance commits a whole cohort of writes.
//
// The algorithm per instance is the classic one from Chandra & Toueg,
// "Unreliable failure detectors for reliable distributed systems"
// (JACM 1996):
//
//	round r (r = 1, 2, ...), coordinator c = peers[(r-1) mod n]:
//	 phase 1: every process sends its estimate (value, ts) to c
//	 phase 2: c gathers a majority of estimates, picks the one with the
//	          highest ts, and proposes it to all
//	 phase 3: each process waits for c's proposal (adopt + ack) or until it
//	          suspects c (nack), then moves to round r+1
//	 phase 4: if c gathers a majority of acks it decides and reliably
//	          broadcasts the decision
//
// Two refinements shape the failure-free cost:
//
//   - Round-1 coordinator fast path: no value can carry a timestamp above 0
//     before round 1, so the round-1 coordinator skips phase 1 and proposes
//     its own estimate immediately — the failure-free write is a true single
//     round trip, as the paper's analysis assumes. For batch-log slots the
//     fast-path proposal additionally merges any round-1 estimates already
//     in hand (all timestamps 0, so the union of proposed batches is as
//     valid a proposal as any single one), which folds a concurrent
//     proposer's cohort into the slot instead of forcing it to retry.
//   - Event-driven waits: a blocked phase sleeps until a message arrives
//     (the instance mailbox signals), a local proposal lands, or the failure
//     detector announces a suspicion transition (fd.Notifier). Poll survives
//     only as a safety-net timer for detectors that cannot announce
//     transitions.
//
// # Batch-log truncation
//
// With Config.RetainSlots set, the batch log is garbage-collected by a
// low-watermark protocol (the epoch/checkpoint discipline of STAR-style
// systems): every node piggybacks its applied watermark (the highest slot it
// has applied, nextApply-1) on outgoing consensus messages and on the failure
// detector's heartbeats; each node tracks the minimum watermark across the
// peers it does not suspect, and prunes decided slots at or below that
// minimum minus a retention tail of RetainSlots (kept so ordinary laggards
// are still answered with CDecision replay). A node asked about a slot below
// its truncation floor answers with a msg.Checkpoint — its floor plus the
// register effects it holds — and the laggard installs the effects and
// fast-forwards its application cursor instead of re-deciding the pruned
// prefix. Safety is unchanged: a node that ever acked (locked) or decided a
// slot either still holds that state, or has applied-and-pruned the slot and
// refuses to participate in any fresh instance for it, so no quorum can
// re-decide a pruned slot differently. RetainSlots 0 (the default) disables
// truncation and reproduces the unbounded retention exactly.
//
// Safety (agreement, validity) holds with any failure-detector behaviour;
// termination needs a majority of correct processes and the eventual accuracy
// of the detector — exactly the paper's correctness assumptions.
//
// Processes walk rounds strictly sequentially (no round skipping): the
// liveness argument of CT depends on every correct process eventually sending
// its phase-1 estimate for every round it passes through.
package consensus

import (
	"context"
	"errors"
	"fmt"
	"sync"
	"sync/atomic"
	"time"

	"etx/internal/fd"
	"etx/internal/id"
	"etx/internal/metrics"
	"etx/internal/msg"
	"etx/internal/queue"
)

// SendFunc transmits a payload to a peer.
type SendFunc func(to id.NodeID, p msg.Payload) error

// Config parameterizes a consensus Node.
type Config struct {
	// Self is this process.
	Self id.NodeID
	// Peers is the full, identically-ordered membership on every process
	// (it must include Self). peers[0] is the round-1 coordinator; the
	// paper makes that the default primary application server so that a
	// failure-free register write costs a single round trip.
	Peers []id.NodeID
	// Send transmits consensus messages. Messages to Self short-circuit and
	// never touch Send.
	Send SendFunc
	// Detector provides the suspect() predicate (◊P suffices for ◊S). When
	// it also implements fd.Notifier, blocked phases sleep until a suspicion
	// transition instead of re-polling.
	Detector fd.Detector
	// Poll is the safety-net interval at which a blocked phase re-checks the
	// failure detector. With a notifying detector it defaults to 25ms (a
	// backstop; wakeups are event-driven); otherwise to 1ms (the polling is
	// the only way to observe the detector).
	Poll time.Duration
	// RetainSlots enables checkpointed truncation of the batch log: decided
	// slots at or below the cluster-wide minimum applied watermark minus this
	// retention tail are pruned, and questions about pruned slots are
	// answered with checkpoint state transfer instead of decision replay.
	// 0 (the default) retains every decided slot forever — the pre-GC
	// behaviour, and the paper's deferred Section-5 problem.
	RetainSlots int
	// Now is the clock behind every throttle (probe pacing, checkpoint
	// serving, retransmission). Defaults to time.Now; deterministic
	// harnesses inject their own. Protocol *decisions* never read it —
	// rounds and timestamps are logical — it only paces traffic.
	Now func() time.Time
}

func (c Config) validate() error {
	if !c.Self.Role.Valid() {
		return errors.New("consensus: invalid Self")
	}
	if c.Send == nil {
		return errors.New("consensus: Send is required")
	}
	if c.Detector == nil {
		return errors.New("consensus: Detector is required")
	}
	found := false
	for _, p := range c.Peers {
		if p == c.Self {
			found = true
		}
	}
	if !found {
		return errors.New("consensus: Peers must contain Self")
	}
	return nil
}

// ErrStopped is returned by Propose when the node shuts down mid-wait.
var ErrStopped = errors.New("consensus: node stopped")

// ErrAbandoned is returned by Propose when the instance was discarded by
// Abandon (request retirement) before it decided.
var ErrAbandoned = errors.New("consensus: instance abandoned")

// ErrSlotTruncated is returned by Propose for a batch-log slot at or below
// the local truncation floor: the slot is applied history, and proposing
// there again could only re-litigate it.
var ErrSlotTruncated = errors.New("consensus: slot below truncation floor")

// minResendInterval floors the blocked-phase retransmission cadence: a
// sub-millisecond safety-net poll (legacy non-notifying detectors, tests)
// must re-check the detector that often, but re-broadcasting estimates at
// that rate would amplify one lost message into a flood.
const minResendInterval = 20 * time.Millisecond

// Counters aggregates a node's protocol activity (see Stats).
type Counters struct {
	Instances metrics.Counter // instances started (proposer or passive)
	Proposes  metrics.Counter // local Propose calls that ran an instance
	Rounds    metrics.Counter // rounds entered across all instances
	Messages  metrics.Counter // remote consensus messages sent
	FastPath  metrics.Counter // round-1 coordinator fast-path proposals
	BatchOps  metrics.Counter // register ops decided through applied slots
	Resends   metrics.Counter // safety-net retransmissions from blocked phases

	SlotsPruned    metrics.Counter // batch-log slots truncated below the floor
	CkptServed     metrics.Counter // checkpoint answers sent to laggards
	CkptInstalled  metrics.Counter // checkpoints installed (fast-forwards taken)
	LiveSlots      metrics.Gauge   // decided batch-log slots currently held
	AbandonedInsts metrics.Counter // undecided instances discarded by Abandon
}

// Stats is a point-in-time snapshot of a node's counters. LiveSlots, Applied
// and Floor are gauges (current levels, not cumulative counts).
type Stats struct {
	Instances uint64
	Proposes  uint64
	Rounds    uint64
	Messages  uint64
	FastPath  uint64
	BatchOps  uint64
	Resends   uint64

	SlotsPruned          uint64
	CheckpointsServed    uint64
	CheckpointsInstalled uint64
	Abandoned            uint64
	LiveSlots            uint64 // gauge: decided batch-log slots held right now
	Applied              uint64 // gauge: highest batch-log slot applied (nextApply-1)
	Floor                uint64 // gauge: highest batch-log slot truncated
}

// Sub returns the component-wise difference s - base (benchmark deltas).
// Gauge fields (LiveSlots, Applied, Floor) keep s's absolute value — a
// "delta occupancy" would be meaningless and could underflow.
func (s Stats) Sub(base Stats) Stats {
	return Stats{
		Instances:            s.Instances - base.Instances,
		Proposes:             s.Proposes - base.Proposes,
		Rounds:               s.Rounds - base.Rounds,
		Messages:             s.Messages - base.Messages,
		FastPath:             s.FastPath - base.FastPath,
		BatchOps:             s.BatchOps - base.BatchOps,
		Resends:              s.Resends - base.Resends,
		SlotsPruned:          s.SlotsPruned - base.SlotsPruned,
		CheckpointsServed:    s.CheckpointsServed - base.CheckpointsServed,
		CheckpointsInstalled: s.CheckpointsInstalled - base.CheckpointsInstalled,
		Abandoned:            s.Abandoned - base.Abandoned,
		LiveSlots:            s.LiveSlots,
		Applied:              s.Applied,
		Floor:                s.Floor,
	}
}

// String renders the snapshot for diagnostics.
func (s Stats) String() string {
	return fmt.Sprintf("instances=%d proposes=%d rounds=%d msgs=%d fastpath=%d batchops=%d resends=%d "+
		"pruned=%d ckpt=%d/%d slots=%d applied=%d floor=%d",
		s.Instances, s.Proposes, s.Rounds, s.Messages, s.FastPath, s.BatchOps, s.Resends,
		s.SlotsPruned, s.CheckpointsServed, s.CheckpointsInstalled, s.LiveSlots, s.Applied, s.Floor)
}

// Node multiplexes consensus instances for one process.
type Node struct {
	cfg  Config
	maj  int
	poll time.Duration

	ctx    context.Context
	cancel context.CancelFunc
	wg     sync.WaitGroup

	counters Counters

	// appliedWM mirrors nextApply-1 so the send path can stamp outgoing
	// messages with the applied watermark without taking mu.
	appliedWM atomic.Uint64

	// fdCh is the node's single subscription to the detector's transition
	// notifications (nil without fd.Notifier); a long-lived fan-out
	// goroutine broadcasts each signal to every live instance's wake
	// channel. One subscription per node, not per instance: instances come
	// and go thousands of times a second on the batched hot path.
	fdCh chan struct{}

	mu        sync.Mutex
	stopped   bool                         // guarded by mu
	instances map[msg.RegKey]*instance     // guarded by mu
	decided   map[msg.RegKey][]byte        // guarded by mu
	subs      map[msg.RegKey][]chan []byte // guarded by mu

	// Batch-log application state: decided slots are applied strictly in
	// slot order; nextApply is the first unapplied slot.
	//
	// Retention: without RetainSlots, decided slots are kept forever —
	// a laggard's gap proposal is answered with the original decision, and
	// evicting a slot would otherwise let a fresh quorum re-decide it
	// differently. With RetainSlots > 0 the watermark protocol truncates
	// the applied prefix instead: slots at or below floor have been applied
	// by every live peer (minus the retention tail) and are pruned, and any
	// question about them is answered with checkpoint state transfer — the
	// laggard fast-forwards past the floor rather than re-deciding, so
	// agreement is preserved without unbounded memory.
	nextApply uint64 // guarded by mu
	// floor is the truncation floor: every slot <= floor has been pruned
	// (or was never held) and is served via Checkpoint. Invariant:
	// floor < nextApply. Guarded by mu.
	floor uint64
	// peerWM is the latest applied watermark heard from each peer, via the
	// piggyback on consensus messages and heartbeats. Guarded by mu.
	peerWM map[id.NodeID]uint64
	// lastProbe throttles the laggard-side gap probes sent when a peer's
	// watermark shows this node has fallen behind. Guarded by mu.
	lastProbe time.Time
	// lastCkpt throttles checkpoint serving per asking peer (a blocked
	// laggard retransmits its gap proposal on a timer); ckptCache reuses
	// one assembled snapshot for as long as the floor it was cut at stands
	// (see checkpointLocked). All three guarded by mu.
	lastCkpt       map[id.NodeID]time.Time
	ckptCache      *msg.Checkpoint
	ckptCacheFloor uint64
}

// New creates a consensus node. Call Stop when done to release its
// goroutines.
func New(cfg Config) (*Node, error) {
	if err := cfg.validate(); err != nil {
		return nil, err
	}
	if cfg.Poll <= 0 {
		if _, ok := cfg.Detector.(fd.Notifier); ok {
			cfg.Poll = 25 * time.Millisecond
		} else {
			cfg.Poll = time.Millisecond
		}
	}
	if cfg.RetainSlots < 0 {
		cfg.RetainSlots = 0
	}
	if cfg.Now == nil {
		cfg.Now = time.Now //etxlint:allow wallclock — the injected clock's default; every other read goes through n.now
	}
	ctx, cancel := context.WithCancel(context.Background())
	n := &Node{
		cfg:       cfg,
		maj:       len(cfg.Peers)/2 + 1,
		poll:      cfg.Poll,
		ctx:       ctx,
		cancel:    cancel,
		instances: make(map[msg.RegKey]*instance),
		decided:   make(map[msg.RegKey][]byte),
		subs:      make(map[msg.RegKey][]chan []byte),
		nextApply: 1,
		peerWM:    make(map[id.NodeID]uint64, len(cfg.Peers)),
		lastCkpt:  make(map[id.NodeID]time.Time, len(cfg.Peers)),
	}
	if notif, ok := cfg.Detector.(fd.Notifier); ok {
		n.fdCh = make(chan struct{}, 1)
		notif.Subscribe(n.fdCh)
		n.wg.Add(1)
		go n.fanoutDetector(notif)
	}
	return n, nil
}

// now reads the injected clock.
func (n *Node) now() time.Time { return n.cfg.Now() }

// fanoutDetector relays the detector's transition signals to every live
// instance's wake channel.
func (n *Node) fanoutDetector(notif fd.Notifier) {
	defer n.wg.Done()
	defer notif.Unsubscribe(n.fdCh)
	for {
		select {
		case <-n.fdCh:
			n.mu.Lock()
			for _, inst := range n.instances {
				select {
				case inst.fdWake <- struct{}{}:
				default:
				}
			}
			n.mu.Unlock()
		case <-n.ctx.Done():
			return
		}
	}
}

// Stop shuts down all instance goroutines and fails pending Proposes with
// ErrStopped.
func (n *Node) Stop() {
	n.mu.Lock()
	n.stopped = true
	n.mu.Unlock()
	n.cancel()
	n.wg.Wait()
}

// Done is closed when the node stops; callers waiting on Watch channels
// select on it to observe shutdown.
func (n *Node) Done() <-chan struct{} { return n.ctx.Done() }

// Stats returns a snapshot of the node's protocol counters.
func (n *Node) Stats() Stats {
	live := n.counters.LiveSlots.Load()
	if live < 0 {
		live = 0
	}
	n.mu.Lock()
	floor := n.floor
	n.mu.Unlock()
	return Stats{
		Instances:            n.counters.Instances.Load(),
		Proposes:             n.counters.Proposes.Load(),
		Rounds:               n.counters.Rounds.Load(),
		Messages:             n.counters.Messages.Load(),
		FastPath:             n.counters.FastPath.Load(),
		BatchOps:             n.counters.BatchOps.Load(),
		Resends:              n.counters.Resends.Load(),
		SlotsPruned:          n.counters.SlotsPruned.Load(),
		CheckpointsServed:    n.counters.CkptServed.Load(),
		CheckpointsInstalled: n.counters.CkptInstalled.Load(),
		Abandoned:            n.counters.AbandonedInsts.Load(),
		LiveSlots:            uint64(live),
		Applied:              n.appliedWM.Load(),
		Floor:                floor,
	}
}

// Applied returns the node's applied batch-log watermark: the highest slot
// whose register effects have been applied locally (nextApply-1). This is
// the value piggybacked on outgoing consensus messages and heartbeats.
func (n *Node) Applied() uint64 { return n.appliedWM.Load() }

// Floor returns the truncation floor: every batch-log slot at or below it
// has been pruned and is served by checkpoint state transfer.
func (n *Node) Floor() uint64 {
	n.mu.Lock()
	defer n.mu.Unlock()
	return n.floor
}

// Propose submits val for the instance key and blocks until that instance
// decides (returning the decided value, which may differ from val), the
// caller's ctx is cancelled, or the node stops.
func (n *Node) Propose(ctx context.Context, key msg.RegKey, val []byte) ([]byte, error) {
	if v, ok := n.Decided(key); ok {
		return v, nil
	}
	if key.Array == msg.RegBatch {
		n.mu.Lock()
		truncated := key.Slot <= n.floor
		n.mu.Unlock()
		if truncated {
			return nil, fmt.Errorf("propose %s: %w", key, ErrSlotTruncated)
		}
	}
	inst := n.getInstance(key, true)
	if inst == nil {
		// Decided between the check and instance creation.
		if v, ok := n.Decided(key); ok {
			return v, nil
		}
		return nil, ErrStopped
	}
	n.counters.Proposes.Inc()
	inst.propose(val)
	select {
	case <-inst.done:
		if inst.result == nil {
			return nil, fmt.Errorf("propose %s: %w", key, ErrAbandoned)
		}
		return inst.result, nil
	case <-ctx.Done():
		return nil, fmt.Errorf("consensus: propose %s: %w", key, ctx.Err())
	case <-n.ctx.Done():
		return nil, ErrStopped
	}
}

// Decided returns the decided value of an instance, if any. It implements
// the weak read of the paper's wo-register: it may lag behind a decision made
// elsewhere, but repeated calls eventually observe it (decision broadcasts).
func (n *Node) Decided(key msg.RegKey) ([]byte, bool) {
	n.mu.Lock()
	defer n.mu.Unlock()
	v, ok := n.decided[key]
	return v, ok
}

// Watch returns a channel that receives the decided value of key (buffered;
// at most one send). If the instance already decided, the value is delivered
// immediately.
func (n *Node) Watch(key msg.RegKey) <-chan []byte {
	ch := make(chan []byte, 1)
	n.mu.Lock()
	if v, ok := n.decided[key]; ok {
		n.mu.Unlock()
		ch <- v
		return ch
	}
	n.subs[key] = append(n.subs[key], ch)
	n.mu.Unlock()
	return ch
}

// Forget discards the decided value of an instance, freeing its memory.
// This implements the garbage collection the paper defers in Section 5: it
// is only safe once the client can no longer retransmit the corresponding
// request (the at-most-once guarantee is conditioned on exactly that, as the
// paper notes). Forgetting an undecided instance is a no-op; use Abandon to
// also discard in-flight instance state.
func (n *Node) Forget(key msg.RegKey) {
	n.mu.Lock()
	defer n.mu.Unlock()
	delete(n.decided, key)
}

// Abandon discards every trace of a register instance: the decided value (as
// Forget), any undecided in-flight instance, and any watchers. Retirement
// must use this rather than Forget: a register whose proposer crashed between
// propose and decide never decides, so its instance (and its watch
// subscriptions) would otherwise sit in the node's maps forever. The same
// safety condition applies — the client must be past retransmitting — and
// under it nobody is waiting on the abandoned instance; a straggling Propose
// caller gets ErrAbandoned. Batch-log slots are never abandoned (their
// lifecycle is the watermark protocol's).
//
// Known (inherited) race: a CDecision for the retired register still in
// flight at Abandon time re-records it on arrival — a forgotten key is
// indistinguishable from a never-seen one, and treating it as the latter is
// what laggard help depends on. The leak is one entry per such message, and
// the window is the transport's in-flight horizon, not the request lifetime;
// distinguishing the cases would take tombstones, i.e. the memory this call
// exists to free. Forget had the same window.
func (n *Node) Abandon(key msg.RegKey) {
	if key.Array == msg.RegBatch {
		return
	}
	n.mu.Lock()
	delete(n.decided, key)
	inst := n.instances[key]
	delete(n.instances, key)
	delete(n.subs, key)
	n.mu.Unlock()
	if inst != nil {
		n.counters.AbandonedInsts.Inc()
		// A nil result marks abandonment: the run goroutine drains out and
		// exits, and Propose waiters resolve with ErrAbandoned.
		inst.finish(nil)
	}
}

// LowestUndecidedSlot returns the lowest batch-log slot this node has no
// decision for — the slot a cohort sequencer should propose its next batch
// at. An application gap (a decided slot blocked behind a missing one) is
// returned first, so a proposal there doubles as the gap-fill probe: peers
// that already decided the slot answer with its decision.
func (n *Node) LowestUndecidedSlot() uint64 {
	n.mu.Lock()
	defer n.mu.Unlock()
	s := n.nextApply
	for {
		if _, ok := n.decided[msg.SlotKey(s)]; !ok {
			return s
		}
		s++
	}
}

// Keys returns every register key this node has ever seen (decided or in
// flight), excluding batch-log slots. The cleaning thread scans this in
// place of the paper's unbounded register-array walk.
func (n *Node) Keys() []msg.RegKey {
	n.mu.Lock()
	defer n.mu.Unlock()
	out := make([]msg.RegKey, 0, len(n.decided)+len(n.instances))
	seen := make(map[msg.RegKey]bool, len(n.decided))
	for k := range n.decided {
		if k.Array == msg.RegBatch {
			continue
		}
		out = append(out, k)
		seen[k] = true
	}
	for k := range n.instances {
		if k.Array == msg.RegBatch || seen[k] {
			continue
		}
		out = append(out, k)
	}
	return out
}

// InstanceState reports the live round and coordinator of an undecided
// instance (liveness diagnostics: DebugTry uses it to show where a stuck
// register write is blocked). ok is false when no instance is running.
func (n *Node) InstanceState(key msg.RegKey) (round uint32, coord id.NodeID, ok bool) {
	n.mu.Lock()
	inst := n.instances[key]
	n.mu.Unlock()
	if inst == nil {
		return 0, id.NodeID{}, false
	}
	r := inst.roundNow.Load()
	if r == 0 {
		r = 1 // still acquiring an estimate; round 1 is next
	}
	return r, inst.coord(r), true
}

// Handle ingests one consensus message (Estimate, Propose, CAck, CNack,
// CDecision, Checkpoint); the owning node's demux loop calls it. The applied
// watermark piggybacked on every consensus message feeds the truncation
// protocol as a side effect.
func (n *Node) Handle(from id.NodeID, p msg.Payload) {
	//etxlint:allow kindswitch — Handle's contract is the five consensus kinds; the owning demux routes everything else
	switch m := p.(type) {
	case msg.CDecision:
		n.ObserveWatermark(from, m.WM)
		n.learn(m.Reg, m.Val)
	case msg.Estimate:
		n.ObserveWatermark(from, m.WM)
		n.dispatch(from, m.Reg, p)
	case msg.Propose:
		n.ObserveWatermark(from, m.WM)
		n.dispatch(from, m.Reg, p)
	case msg.CAck:
		n.ObserveWatermark(from, m.WM)
		n.dispatch(from, m.Reg, p)
	case msg.CNack:
		n.ObserveWatermark(from, m.WM)
		n.dispatch(from, m.Reg, p)
	case msg.Checkpoint:
		n.installCheckpoint(m)
	}
}

// gapBurst caps how many consecutive decided slots a node replays in answer
// to one batch-log gap probe: a laggard within the retention tail catches up
// a window of slots per probe instead of one.
const gapBurst = 32

// probeInterval throttles the laggard-side gap probes (watermark
// observations arrive with every heartbeat and consensus message).
const probeInterval = 25 * time.Millisecond

// ckptServeInterval throttles checkpoint serving per asking peer: a blocked
// laggard retransmits on a timer, and every retransmission would otherwise
// ship a full register snapshot.
const ckptServeInterval = 50 * time.Millisecond

// ObserveWatermark records a peer's applied batch-log watermark (piggybacked
// on consensus messages and forwarded by the demux loop from heartbeats),
// advances truncation if the cluster-wide minimum moved, and — when the
// watermark shows this node has fallen behind — probes the peer for the
// first unapplied slot. The probe is an empty round-1 estimate: a peer that
// still holds the slot answers with the decision (and a burst of successors),
// one that has truncated it answers with a checkpoint.
func (n *Node) ObserveWatermark(from id.NodeID, wm uint64) {
	if wm == 0 || from == n.cfg.Self {
		return
	}
	n.mu.Lock()
	if wm > n.peerWM[from] {
		// Watermarks are monotone; truncation only needs to re-evaluate
		// when one advances.
		n.peerWM[from] = wm
		n.gcLocked()
	}
	// The probe re-arms on every observation, advanced or not: in a
	// quiescent cluster the peers' watermarks sit still while their
	// heartbeats keep arriving, and a laggard more than one burst behind
	// (or one whose previous probe fell to a fair-loss link) must keep
	// asking until it has caught up.
	var probe msg.Payload
	if wm >= n.nextApply && n.now().Sub(n.lastProbe) >= probeInterval {
		// The peer has applied our first unapplied slot: ask about it.
		n.lastProbe = n.now()
		probe = msg.Estimate{Reg: msg.SlotKey(n.nextApply), Round: 1, TS: 0, Est: msg.EncodeRegOps(nil)}
	}
	n.mu.Unlock()
	if probe != nil {
		n.send(from, probe)
	}
}

// gcLocked advances the truncation floor to the minimum applied watermark
// across live peers minus the retention tail, pruning every decided slot it
// passes. Suspected peers do not hold the floor back (a crashed application
// server never recovers in this model; a falsely suspected one catches up
// through checkpoint transfer). Caller holds n.mu.
func (n *Node) gcLocked() {
	if n.cfg.RetainSlots <= 0 {
		return
	}
	min := n.nextApply - 1
	for _, p := range n.cfg.Peers {
		if p == n.cfg.Self {
			continue
		}
		if n.cfg.Detector.Suspects(p) {
			continue
		}
		if wm := n.peerWM[p]; wm < min {
			min = wm
		}
	}
	if min <= uint64(n.cfg.RetainSlots) {
		return
	}
	newFloor := min - uint64(n.cfg.RetainSlots)
	if newFloor <= n.floor {
		return
	}
	var pruned uint64
	for s := n.floor + 1; s <= newFloor; s++ {
		if _, ok := n.decided[msg.SlotKey(s)]; ok {
			delete(n.decided, msg.SlotKey(s))
			n.counters.LiveSlots.Dec()
			pruned++
		}
	}
	n.floor = newFloor
	if pruned > 0 {
		n.counters.SlotsPruned.Add(pruned)
	}
}

// checkpointLocked assembles the state-transfer answer for a pruned slot:
// the floor plus every register effect this node holds. The snapshot covers
// all applied slots (provenance per slot is not tracked); its size is
// bounded by request retirement (Abandon), the per-register GC layered above.
//
// The snapshot is cached per floor value: any snapshot taken while the
// floor sits at F already contains every effect of slots <= F (they were
// applied before the floor could advance to F), so re-serving it to the
// next asker is as safe as rebuilding — and the rebuild is O(live
// registers) under the node-wide lock, which retrying laggards would
// otherwise pay dozens of times a second. Caller holds n.mu.
func (n *Node) checkpointLocked() msg.Checkpoint {
	if n.ckptCache != nil && n.ckptCacheFloor == n.floor {
		return *n.ckptCache
	}
	ck := msg.Checkpoint{Floor: n.floor}
	ck.Regs = make([]msg.RegOp, 0, len(n.decided))
	for k, v := range n.decided {
		if k.Array == msg.RegBatch {
			continue
		}
		ck.Regs = append(ck.Regs, msg.RegOp{Reg: k, Val: v})
	}
	n.ckptCache, n.ckptCacheFloor = &ck, n.floor
	return ck
}

// installCheckpoint fast-forwards a laggard past a peer's truncation floor:
// the shipped register effects are installed (first write wins, so anything
// already decided locally is untouched), the application cursor jumps to
// floor+1, stranded slot instances at or below the floor are finished (their
// proposers re-enqueue at a live slot), and any decided slots waiting above
// the old gap are applied.
func (n *Node) installCheckpoint(m msg.Checkpoint) {
	n.mu.Lock()
	if m.Floor < n.nextApply {
		// Nothing to skip: we are at or past this peer's floor already.
		n.mu.Unlock()
		return
	}
	var effects []decideEffect
	for _, op := range m.Regs {
		if op.Reg.Array == msg.RegBatch {
			continue // structurally excluded by the codec; belt and braces
		}
		if _, dup := n.decided[op.Reg]; dup {
			continue
		}
		n.decided[op.Reg] = op.Val
		inst := n.instances[op.Reg]
		subs := n.subs[op.Reg]
		if inst == nil && len(subs) == 0 {
			continue
		}
		delete(n.subs, op.Reg)
		effects = append(effects, decideEffect{key: op.Reg, val: op.Val, inst: inst, subs: subs})
	}
	// Drop slots we hold that are now below the floor (decided but never
	// applied: the gap in front of them is what stranded us).
	var pruned uint64
	for s := n.floor + 1; s <= m.Floor; s++ {
		if _, ok := n.decided[msg.SlotKey(s)]; ok {
			delete(n.decided, msg.SlotKey(s))
			n.counters.LiveSlots.Dec()
			pruned++
		}
	}
	if pruned > 0 {
		n.counters.SlotsPruned.Add(pruned)
	}
	if m.Floor > n.floor {
		n.floor = m.Floor
	}
	n.nextApply = m.Floor + 1
	// Slot instances at or below the floor can never decide now (every
	// up-to-date peer answers them with a checkpoint): finish them so their
	// proposing sequencers re-enqueue the surviving ops at a live slot.
	var stranded []*instance
	for k, inst := range n.instances {
		if k.Array == msg.RegBatch && k.Slot <= n.floor {
			stranded = append(stranded, inst)
			delete(n.instances, k)
		}
	}
	effects = n.applyLocked(effects)
	n.gcLocked()
	n.mu.Unlock()

	n.counters.CkptInstalled.Inc()
	for _, inst := range stranded {
		inst.finish(msg.EncodeRegOps(nil))
	}
	n.deliver(effects)
}

func (n *Node) dispatch(from id.NodeID, key msg.RegKey, p msg.Payload) {
	n.mu.Lock()
	if key.Array == msg.RegBatch && key.Slot <= n.floor {
		// The slot is truncated history: state transfer instead of replay.
		if n.now().Sub(n.lastCkpt[from]) < ckptServeInterval {
			n.mu.Unlock()
			return
		}
		n.lastCkpt[from] = n.now()
		ck := n.checkpointLocked()
		n.mu.Unlock()
		n.counters.CkptServed.Inc()
		n.send(from, ck)
		return
	}
	if v, ok := n.decided[key]; ok {
		// Help laggards: answer any chatter about a decided instance with
		// the decision itself. For batch-log slots, replay a burst of
		// consecutive decided slots: the asker is applying in slot order,
		// so the successors are its next questions.
		answers := []msg.CDecision{{Reg: key, Val: v}}
		if key.Array == msg.RegBatch {
			for s := key.Slot + 1; len(answers) < gapBurst; s++ {
				v2, ok := n.decided[msg.SlotKey(s)]
				if !ok {
					break
				}
				answers = append(answers, msg.CDecision{Reg: msg.SlotKey(s), Val: v2})
			}
		}
		n.mu.Unlock()
		for _, a := range answers {
			n.send(from, a)
		}
		return
	}
	n.mu.Unlock()
	// A round message from a peer starts the instance here (a passive
	// replica joins that way). A self-addressed one can only come from this
	// node's own instance; if that instance is gone, the message is a
	// straggler of an abandoned run and must not resurrect it.
	inst := n.getInstance(key, from != n.cfg.Self)
	if inst == nil {
		return
	}
	inst.inbox.Push(inMsg{from: from, p: p})
}

// decideEffect is one deferred side effect of recording a decision: waiters
// to resolve and, when relay is set, the reliable-broadcast echo to emit.
type decideEffect struct {
	key   msg.RegKey
	val   []byte
	inst  *instance
	subs  []chan []byte
	relay bool
}

// learn records a decision (local or remote) and relays it once to all peers
// (the reliable-broadcast echo). A batch-log slot decision additionally
// triggers in-order application of every ready slot: the registers named by
// the batches decide first-write-wins, resolving their waiters — without a
// per-register relay, since the slot's own echo carries the information.
func (n *Node) learn(key msg.RegKey, val []byte) {
	n.mu.Lock()
	effects := n.recordLocked(key, val)
	if key.Array == msg.RegBatch {
		// Applying slots moved our watermark; the floor may follow.
		n.gcLocked()
	}
	n.mu.Unlock()
	n.deliver(effects)
}

// deliver resolves the deferred side effects of recorded decisions outside
// the node lock: finishing instances, waking watchers, and emitting the
// reliable-broadcast echo where recordLocked asked for one.
func (n *Node) deliver(effects []decideEffect) {
	for _, e := range effects {
		if e.inst != nil {
			e.inst.finish(e.val)
		}
		for _, ch := range e.subs {
			ch <- e.val
		}
		if e.relay {
			for _, p := range n.cfg.Peers {
				if p == n.cfg.Self {
					continue
				}
				n.send(p, msg.CDecision{Reg: e.key, Val: e.val})
			}
		}
	}
}

// recordLocked stores a decision and collects its deferred side effects.
// The decided guard also dedups the reliable-broadcast echo: a key relays
// exactly once, when it is first recorded. Caller holds n.mu.
func (n *Node) recordLocked(key msg.RegKey, val []byte) []decideEffect {
	if key.Array == msg.RegBatch && key.Slot <= n.floor {
		// A straggling replay of a truncated slot (e.g. a tail-retaining
		// peer's CDecision racing a checkpoint install): its effects are
		// already part of the applied state; re-recording would leak the
		// slot below the floor forever.
		return nil
	}
	if _, ok := n.decided[key]; ok {
		return nil
	}
	n.decided[key] = val
	e := decideEffect{key: key, val: val, inst: n.instances[key], subs: n.subs[key], relay: true}
	delete(n.subs, key)
	out := []decideEffect{e}
	if key.Array == msg.RegBatch {
		n.counters.LiveSlots.Inc()
		out = n.applyLocked(out)
	}
	return out
}

// applyLocked applies every decided-and-ready batch-log slot in slot order,
// appending side effects to out. Each register op decides its register
// unless an earlier slot (or a direct per-register decision learned from a
// peer) got there first — the first-write-wins race is resolved by the
// agreed slot order, so every node computes the same winner. Registers
// decided here do not relay (the slot's own echo carries them), so an effect
// is only recorded when a local instance or watcher is waiting. Caller holds
// n.mu.
func (n *Node) applyLocked(out []decideEffect) []decideEffect {
	defer func() {
		n.appliedWM.Store(n.nextApply - 1)
	}()
	for {
		key := msg.SlotKey(n.nextApply)
		raw, ok := n.decided[key]
		if !ok {
			return out
		}
		if ops, err := msg.DecodeRegOps(raw); err == nil {
			for _, op := range ops {
				if _, dup := n.decided[op.Reg]; dup {
					continue
				}
				n.decided[op.Reg] = op.Val
				n.counters.BatchOps.Inc()
				inst := n.instances[op.Reg]
				subs := n.subs[op.Reg]
				if inst == nil && len(subs) == 0 {
					continue
				}
				delete(n.subs, op.Reg)
				out = append(out, decideEffect{key: op.Reg, val: op.Val, inst: inst, subs: subs})
			}
		}
		n.nextApply++
	}
}

// getInstance returns the live instance for key, creating and starting it if
// needed. Returns nil if the node is stopped or the key already decided
// (when create is true the decided check must be done by the caller).
func (n *Node) getInstance(key msg.RegKey, create bool) *instance {
	n.mu.Lock()
	defer n.mu.Unlock()
	if inst, ok := n.instances[key]; ok {
		return inst
	}
	if !create {
		return nil
	}
	if _, ok := n.decided[key]; ok {
		return nil
	}
	if key.Array == msg.RegBatch && key.Slot <= n.floor {
		// The slot is truncated history; an instance here could try to
		// re-litigate it (the callers check too, but the floor may have
		// advanced since they dropped the lock).
		return nil
	}
	if n.stopped {
		return nil
	}
	inst := newInstance(n, key)
	n.instances[key] = inst
	n.counters.Instances.Inc()
	n.wg.Add(1)
	go inst.run(n.ctx)
	return inst
}

// forget drops the instance bookkeeping after it decided (its memory of
// per-round tallies is released; the decided value stays).
func (n *Node) forget(key msg.RegKey) {
	n.mu.Lock()
	defer n.mu.Unlock()
	delete(n.instances, key)
}

// send transmits to a peer, short-circuiting self-sends straight back into
// Handle so a register write by the round-1 coordinator costs exactly one
// network round trip, as the paper's analysis assumes. Remote sends are
// stamped with the applied watermark (the truncation protocol's piggyback).
func (n *Node) send(to id.NodeID, p msg.Payload) {
	if to == n.cfg.Self {
		n.Handle(n.cfg.Self, p)
		return
	}
	n.counters.Messages.Inc()
	_ = n.cfg.Send(to, n.stamp(p))
}

// stamp copies the applied watermark into an outgoing consensus payload.
func (n *Node) stamp(p msg.Payload) msg.Payload {
	wm := n.appliedWM.Load()
	if wm == 0 {
		return p
	}
	//etxlint:allow kindswitch — stamping only rewrites the WM-bearing consensus kinds; others pass through below
	switch m := p.(type) {
	case msg.Estimate:
		m.WM = wm
		return m
	case msg.Propose:
		m.WM = wm
		return m
	case msg.CAck:
		m.WM = wm
		return m
	case msg.CNack:
		m.WM = wm
		return m
	case msg.CDecision:
		m.WM = wm
		return m
	}
	return p
}

// --- instance ---------------------------------------------------------------

type inMsg struct {
	from id.NodeID
	p    msg.Payload
}

type estVal struct {
	val []byte
	ts  uint32
}

// instance is one consensus execution. All protocol state is confined to the
// run goroutine; cross-goroutine interaction happens via inbox, proposeCh and
// done.
type instance struct {
	node *Node
	key  msg.RegKey

	inbox *queue.Queue[inMsg]

	proposeMu sync.Mutex
	proposal  []byte
	hasProp   bool
	propWake  chan struct{}

	fdWake chan struct{} // suspicion-transition wakeups (nil without Notifier)

	done   chan struct{} // closed once result is set
	result []byte
	dOnce  sync.Once

	roundNow atomic.Uint32 // mirror of round for InstanceState

	lastResend time.Time // throttles blocked-phase retransmissions

	// goroutine-local protocol state. The per-round tally maps are lazily
	// allocated on first use: a fast-path instance that never tallies
	// estimates should not pay for the maps (instances are created
	// thousands of times a second on the hot path).
	est       []byte
	hasEst    bool
	ts        uint32
	round     uint32
	estimates map[uint32]map[id.NodeID]estVal
	proposals map[uint32][]byte
	replies   map[uint32]map[id.NodeID]bool // sender -> isAck
	decided   bool
}

func newInstance(n *Node, key msg.RegKey) *instance {
	inst := &instance{
		node:     n,
		key:      key,
		inbox:    queue.New[inMsg](),
		propWake: make(chan struct{}, 1),
		done:     make(chan struct{}),
	}
	if n.fdCh != nil {
		inst.fdWake = make(chan struct{}, 1)
	}
	return inst
}

// propose records the local proposal (first one wins locally) and wakes the
// run loop.
func (inst *instance) propose(val []byte) {
	inst.proposeMu.Lock()
	if !inst.hasProp {
		inst.proposal = val
		inst.hasProp = true
	}
	inst.proposeMu.Unlock()
	select {
	case inst.propWake <- struct{}{}:
	default:
	}
}

// finish publishes the decided value and unblocks waiters. Called by
// Node.learn (possibly from another goroutine than run).
func (inst *instance) finish(val []byte) {
	inst.dOnce.Do(func() {
		inst.result = val
		close(inst.done)
	})
}

func (inst *instance) coord(r uint32) id.NodeID {
	peers := inst.node.cfg.Peers
	return peers[int((r-1)%uint32(len(peers)))]
}

// drain processes every queued message. It returns false if the instance is
// finished (decided externally).
func (inst *instance) drain() bool {
	select {
	case <-inst.done:
		return false
	default:
	}
	//etxlint:allow golifecycle — bounded queue drain: every iteration pops until the inbox empties, then returns
	for {
		m, ok := inst.inbox.Pop()
		if !ok {
			return true
		}
		//etxlint:allow kindswitch — the inbox only ever carries the phase messages Handle enqueues
		switch p := m.p.(type) {
		case msg.Estimate:
			byNode, ok := inst.estimates[p.Round]
			if !ok {
				byNode = make(map[id.NodeID]estVal)
				if inst.estimates == nil {
					//etxlint:allow epochfence — inbox payloads were fenced at Node.Handle (ObserveWatermark + slot routing) before enqueue
					inst.estimates = make(map[uint32]map[id.NodeID]estVal)
				}
				inst.estimates[p.Round] = byNode
			}
			if _, dup := byNode[m.from]; !dup {
				byNode[m.from] = estVal{val: p.Est, ts: p.TS}
			}
		case msg.Propose:
			if _, dup := inst.proposals[p.Round]; !dup {
				if inst.proposals == nil {
					//etxlint:allow epochfence — inbox payloads were fenced at Node.Handle (ObserveWatermark + slot routing) before enqueue
					inst.proposals = make(map[uint32][]byte)
				}
				inst.proposals[p.Round] = p.Val
			}
		case msg.CAck:
			inst.reply(p.Round, m.from, true)
		case msg.CNack:
			inst.reply(p.Round, m.from, false)
		}
	}
}

func (inst *instance) reply(round uint32, from id.NodeID, ack bool) {
	byNode, ok := inst.replies[round]
	if !ok {
		byNode = make(map[id.NodeID]bool)
		if inst.replies == nil {
			inst.replies = make(map[uint32]map[id.NodeID]bool)
		}
		inst.replies[round] = byNode
	}
	if _, dup := byNode[from]; !dup {
		byNode[from] = ack
	}
}

// blockEvent is what ended one blocked wait.
type blockEvent uint8

const (
	blockExit    blockEvent = iota // shutdown or external decision
	blockWake                      // message, proposal or detector transition
	blockTimeout                   // safety-net timer: re-check and RETRANSMIT
)

// block waits for new input: a message, a local proposal, a failure-detector
// transition, the safety-net poll tick, or shutdown. With a notifying
// detector the poll timer is a pure backstop; every productive wakeup is
// event-driven. A timeout is reported distinctly so the blocked phase can
// retransmit its outbound message: consensus assumes reliable channels, but
// the links underneath are fair-loss (a transient partition silently drops
// messages), and a dropped estimate, proposal or ack would otherwise stall
// the instance forever despite a live majority.
func (inst *instance) block(ctx context.Context, timer *time.Timer) blockEvent {
	if !timer.Stop() {
		select {
		case <-timer.C:
		default:
		}
	}
	timer.Reset(inst.node.poll)
	if inst.fdWake == nil {
		select {
		case <-inst.inbox.Out():
			return blockWake
		case <-inst.propWake:
			return blockWake
		case <-timer.C:
			return blockTimeout
		case <-inst.done:
			return blockExit
		case <-ctx.Done():
			return blockExit
		}
	}
	select {
	case <-inst.inbox.Out():
		return blockWake
	case <-inst.propWake:
		return blockWake
	case <-inst.fdWake:
		return blockWake
	case <-timer.C:
		return blockTimeout
	case <-inst.done:
		return blockExit
	case <-ctx.Done():
		return blockExit
	}
}

// run executes the CT round structure until a decision is reached or the
// node stops.
func (inst *instance) run(ctx context.Context) {
	defer inst.node.wg.Done()
	defer inst.node.forget(inst.key)
	timer := time.NewTimer(time.Hour)
	defer timer.Stop()

	self := inst.node.cfg.Self
	maj := inst.node.maj

	// Acquire an initial estimate: the local proposal, or the first value
	// observed in any incoming estimate/proposal.
	for !inst.hasEst {
		if !inst.drain() {
			return
		}
		inst.proposeMu.Lock()
		if inst.hasProp {
			inst.est, inst.hasEst, inst.ts = inst.proposal, true, 0
		}
		inst.proposeMu.Unlock()
		if !inst.hasEst {
			inst.adoptFromMessages()
		}
		if inst.hasEst {
			break
		}
		if inst.block(ctx, timer) == blockExit {
			return
		}
	}

	for {
		inst.round++
		inst.roundNow.Store(inst.round)
		inst.node.counters.Rounds.Inc()
		r := inst.round
		c := inst.coord(r)

		// Phase 1 + 2. In round 1 a coordinator that is up to date can skip
		// gathering estimates: no value can be locked before round 1, so its
		// own estimate is safe to propose directly. This is the optimization
		// the paper's analysis assumes ("in a nice run, it takes only a round
		// trip for the first primary to write into the register"); for a
		// batch-log slot the fast-path proposal folds in any round-1
		// estimates already received (all timestamps are 0, so a merged
		// batch is as proposable as any single one). In every other case the
		// estimate is broadcast to all peers — the coordinator tallies it,
		// and it simultaneously announces the instance to passive replicas
		// so that they join and keep every round live.
		var proposedVal []byte
		_, haveProposal := inst.proposals[r]
		switch {
		case c == self && r == 1:
			proposedVal = inst.est
			if inst.key.Array == msg.RegBatch {
				proposedVal = mergeBatches(proposedVal, inst.estimates[r])
			}
			inst.node.counters.FastPath.Inc()
			for _, p := range inst.node.cfg.Peers {
				inst.node.send(p, msg.Propose{Reg: inst.key, Round: r, Val: proposedVal})
			}
		case haveProposal:
			// The round's proposal is already in hand (we joined late): our
			// phase-1 estimate could no longer influence it, so skip the
			// broadcast and fall through to phase 3.
		default:
			for _, p := range inst.node.cfg.Peers {
				inst.node.send(p, msg.Estimate{Reg: inst.key, Round: r, TS: inst.ts, Est: inst.est})
			}
			if c == self {
				// Phase 2: gather a majority of estimates, propose the freshest.
				for {
					if !inst.drain() {
						return
					}
					if len(inst.estimates[r]) >= maj {
						break
					}
					switch inst.block(ctx, timer) {
					case blockExit:
						return
					case blockTimeout:
						// Re-announce the round: a participant whose
						// estimate (or whose copy of ours) fell to a
						// fair-loss link re-joins and re-answers.
						inst.resendEstimates(r)
					}
				}
				best := estVal{}
				first := true
				for _, ev := range inst.estimates[r] {
					if first || ev.ts > best.ts {
						best = ev
						first = false
					}
				}
				proposedVal = best.val
				if inst.key.Array == msg.RegBatch && best.ts == 0 {
					// No gathered estimate carries a lock (a decided value
					// would have locked a majority, and any majority
					// intersects ours), so the union of the proposed batches
					// is safe to propose — concurrent cohorts merge instead
					// of fighting over the slot.
					proposedVal = mergeBatches(proposedVal, inst.estimates[r])
				}
				for _, p := range inst.node.cfg.Peers {
					inst.node.send(p, msg.Propose{Reg: inst.key, Round: r, Val: proposedVal})
				}
			}
		}

		// Phase 3 (everyone): adopt the coordinator's proposal, or nack if the
		// coordinator is suspected.
		acked := false
		for {
			if !inst.drain() {
				return
			}
			if v, ok := inst.proposals[r]; ok {
				inst.est, inst.ts = v, r
				inst.node.send(c, msg.CAck{Reg: inst.key, Round: r})
				acked = true
				break
			}
			if c != self && inst.node.cfg.Detector.Suspects(c) {
				inst.node.send(c, msg.CNack{Reg: inst.key, Round: r})
				break
			}
			switch inst.block(ctx, timer) {
			case blockExit:
				return
			case blockTimeout:
				// Our estimate may never have reached the coordinator (its
				// phase-2 gather would stall on a live majority), or the
				// proposal may have been dropped on its way to us (a decided
				// coordinator answers chatter with the decision).
				inst.resendEstimates(r)
			}
		}

		// Practical refinement over textbook CT: a participant that acked
		// waits for the decision before starting the next round, advancing
		// early only if it comes to suspect the coordinator or sees evidence
		// of a higher round (the coordinator moved on after a failed round).
		// This removes the round-cycling chatter of eager participants
		// without touching liveness: every exit condition is driven by a
		// message that the assumptions guarantee, or by the detector.
		if acked && c != self {
			for {
				if !inst.drain() {
					return
				}
				if inst.node.cfg.Detector.Suspects(c) || inst.sawRoundAbove(r) {
					break
				}
				switch inst.block(ctx, timer) {
				case blockExit:
					return
				case blockTimeout:
					// Our ack (or the decision itself) may have been lost:
					// re-ack. A coordinator still tallying deduplicates; one
					// that already decided answers with the decision.
					if inst.shouldResend() {
						inst.node.counters.Resends.Inc()
						inst.node.send(c, msg.CAck{Reg: inst.key, Round: r})
					}
				}
			}
		}

		// Phase 4 (coordinator): a majority of acks decides.
		if c == self {
			if proposedVal == nil {
				proposedVal = inst.proposals[r]
			}
			for {
				if !inst.drain() {
					return
				}
				acks, nacks := 0, 0
				for _, isAck := range inst.replies[r] {
					if isAck {
						acks++
					} else {
						nacks++
					}
				}
				if acks >= maj {
					inst.node.learn(inst.key, proposedVal)
					return
				}
				if acks+nacks >= maj {
					break // round failed; move on
				}
				switch inst.block(ctx, timer) {
				case blockExit:
					return
				case blockTimeout:
					// A dropped proposal leaves participants blocked in
					// phase 3 with nothing to answer: re-propose.
					if inst.shouldResend() {
						inst.node.counters.Resends.Inc()
						for _, p := range inst.node.cfg.Peers {
							inst.node.send(p, msg.Propose{Reg: inst.key, Round: r, Val: proposedVal})
						}
					}
				}
			}
		}

		// Release tallies of the finished round.
		delete(inst.estimates, r)
		delete(inst.replies, r)
		delete(inst.proposals, r)
	}
}

// shouldResend throttles blocked-phase retransmissions to at most one per
// max(Poll, minResendInterval): the safety-net timer may tick far faster
// than that (legacy 1ms polling), and re-broadcasting on every tick would
// amplify one lost message into a flood.
func (inst *instance) shouldResend() bool {
	interval := inst.node.poll
	if interval < minResendInterval {
		interval = minResendInterval
	}
	now := inst.node.now()
	if !inst.lastResend.IsZero() && now.Sub(inst.lastResend) < interval {
		return false
	}
	inst.lastResend = now
	return true
}

// resendEstimates re-broadcasts this round's phase-1 estimate (the
// safety-net retransmission of blocked phases 2 and 3).
func (inst *instance) resendEstimates(r uint32) {
	if !inst.shouldResend() {
		return
	}
	inst.node.counters.Resends.Inc()
	for _, p := range inst.node.cfg.Peers {
		inst.node.send(p, msg.Estimate{Reg: inst.key, Round: r, TS: inst.ts, Est: inst.est})
	}
}

// sawRoundAbove reports whether any message for a round greater than r has
// been received (evidence that the group moved past r).
func (inst *instance) sawRoundAbove(r uint32) bool {
	for round := range inst.estimates {
		if round > r {
			return true
		}
	}
	for round := range inst.proposals {
		if round > r {
			return true
		}
	}
	for round := range inst.replies {
		if round > r {
			return true
		}
	}
	return false
}

// adoptFromMessages bootstraps a passive participant's estimate from any
// value-carrying message already received.
func (inst *instance) adoptFromMessages() {
	for _, byNode := range inst.estimates {
		for _, ev := range byNode {
			inst.est, inst.hasEst, inst.ts = ev.val, true, 0
			return
		}
	}
	for _, v := range inst.proposals {
		inst.est, inst.hasEst, inst.ts = v, true, 0
		return
	}
}

// mergeBatches folds every timestamp-0 batch estimate into base, keeping the
// first op seen per register (base's ops win ties, so the coordinator's own
// cohort keeps its internal order). A value that fails to parse contributes
// nothing; if base itself is corrupt it is returned unchanged — merging is an
// inclusion optimization, never a correctness requirement.
func mergeBatches(base []byte, ests map[id.NodeID]estVal) []byte {
	ops, err := msg.DecodeRegOps(base)
	if err != nil {
		return base
	}
	seen := make(map[msg.RegKey]bool, len(ops))
	for _, op := range ops {
		seen[op.Reg] = true
	}
	merged := false
	for _, ev := range ests {
		if ev.ts != 0 {
			continue
		}
		more, err := msg.DecodeRegOps(ev.val)
		if err != nil {
			continue
		}
		for _, op := range more {
			if seen[op.Reg] {
				continue
			}
			seen[op.Reg] = true
			ops = append(ops, op)
			merged = true
		}
	}
	if !merged {
		return base
	}
	return msg.EncodeRegOps(ops)
}
