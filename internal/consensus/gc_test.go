package consensus

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"testing"
	"time"

	"etx/internal/id"
	"etx/internal/msg"
	"etx/internal/transport"
)

// decideSlots drives `count` batch-log slots to a decision from node 0, each
// carrying one register write, and waits until every node has applied them
// all (watermark == count).
func decideSlots(t *testing.T, r *rig, count int) {
	t.Helper()
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	for i := 1; i <= count; i++ {
		ops := []msg.RegOp{{Reg: regKey(msg.RegD, uint64(i)), Val: []byte(fmt.Sprintf("dec-%d", i))}}
		slot := msg.SlotKey(r.nodes[r.peers[0]].LowestUndecidedSlot())
		if _, err := r.nodes[r.peers[0]].Propose(ctx, slot, msg.EncodeRegOps(ops)); err != nil {
			t.Fatal(err)
		}
	}
	for _, p := range r.peers {
		waitApplied(t, r.nodes[p], uint64(count))
	}
}

func waitApplied(t *testing.T, n *Node, want uint64) {
	t.Helper()
	deadline := time.Now().Add(10 * time.Second)
	for n.Applied() < want {
		if time.Now().After(deadline) {
			t.Fatalf("%v applied watermark stuck at %d, want >= %d", n.cfg.Self, n.Applied(), want)
		}
		time.Sleep(time.Millisecond)
	}
}

// syncWatermarks hand-delivers every node's applied watermark to every other
// (the production path piggybacks it on traffic; a quiesced test rig has
// none).
func syncWatermarks(r *rig) {
	for _, p := range r.peers {
		wm := r.nodes[p].Applied()
		for _, q := range r.peers {
			if q != p {
				r.nodes[q].ObserveWatermark(p, wm)
			}
		}
	}
}

// TestSlotPruningBelowMinWatermark: once every node has applied a prefix of
// the batch log, slots below the cluster minimum minus the retention tail
// are pruned, the floor advances, and the register effects survive.
func TestSlotPruningBelowMinWatermark(t *testing.T) {
	const retain, slots = 2, 10
	r := newRigRetain(t, 3, transport.Options{}, 200*time.Microsecond, retain)
	decideSlots(t, r, slots)
	syncWatermarks(r)

	for _, p := range r.peers {
		n := r.nodes[p]
		st := n.Stats()
		if want := uint64(slots - retain); st.Floor != want {
			t.Errorf("%v: floor = %d, want %d", p, st.Floor, want)
		}
		if st.SlotsPruned == 0 {
			t.Errorf("%v: no slots pruned", p)
		}
		if st.LiveSlots > retain {
			t.Errorf("%v: %d live slots, want <= %d", p, st.LiveSlots, retain)
		}
		// Pruned slots are gone; tail slots and all register effects remain.
		if _, ok := n.Decided(msg.SlotKey(1)); ok {
			t.Errorf("%v: slot 1 survived pruning", p)
		}
		if _, ok := n.Decided(msg.SlotKey(slots)); !ok {
			t.Errorf("%v: tail slot %d was pruned", p, slots)
		}
		for i := 1; i <= slots; i++ {
			if v, ok := n.Decided(regKey(msg.RegD, uint64(i))); !ok || string(v) != fmt.Sprintf("dec-%d", i) {
				t.Errorf("%v: register %d lost by pruning (%q, %v)", p, i, v, ok)
			}
		}
	}
}

// TestRetainZeroKeepsEverySlot: RetainSlots 0 must reproduce the unbounded
// retention exactly — no floor movement, no pruning, every slot held.
func TestRetainZeroKeepsEverySlot(t *testing.T) {
	const slots = 8
	r := newRig(t, 3, transport.Options{})
	decideSlots(t, r, slots)
	syncWatermarks(r)
	for _, p := range r.peers {
		st := r.nodes[p].Stats()
		if st.Floor != 0 || st.SlotsPruned != 0 {
			t.Errorf("%v: GC ran with RetainSlots=0 (floor=%d pruned=%d)", p, st.Floor, st.SlotsPruned)
		}
		if st.LiveSlots != slots {
			t.Errorf("%v: %d live slots, want all %d retained", p, st.LiveSlots, slots)
		}
	}
}

// TestSuspectedPeerDoesNotHoldFloor: a crashed (suspected) peer must not
// pin the truncation floor at its last watermark forever.
func TestSuspectedPeerDoesNotHoldFloor(t *testing.T) {
	const retain, slots = 1, 6
	r := newRigRetain(t, 3, transport.Options{}, 200*time.Microsecond, retain)
	decideSlots(t, r, slots)

	// Node 3 crashes; the survivors suspect it and prune without it.
	r.crash(r.peers[2])
	syncWatermarks(r)
	for _, p := range r.peers[:2] {
		st := r.nodes[p].Stats()
		if want := uint64(slots - retain); st.Floor != want {
			t.Errorf("%v: floor = %d, want %d despite the crashed peer", p, st.Floor, want)
		}
	}
}

// TestCheckpointTransferCatchesUpLaggard: a node partitioned below the
// truncation floor must converge to byte-identical register state through
// checkpoint state transfer — its gap proposal is answered with the floor
// and the applied effects, never with a re-decision.
func TestCheckpointTransferCatchesUpLaggard(t *testing.T) {
	const retain, slots = 1, 8
	r := newRigRetain(t, 3, transport.Options{}, 200*time.Microsecond, retain)
	late := r.peers[2]
	others := []id.NodeID{r.peers[0], r.peers[1]}

	r.net.Partition([]id.NodeID{late}, others)
	// The survivors must suspect the partitioned node or it pins the floor.
	for _, p := range others {
		r.dets[p].Set(late, true)
	}
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	for i := 1; i <= slots; i++ {
		ops := []msg.RegOp{{Reg: regKey(msg.RegD, uint64(i)), Val: []byte(fmt.Sprintf("dec-%d", i))}}
		slot := msg.SlotKey(r.nodes[r.peers[0]].LowestUndecidedSlot())
		if _, err := r.nodes[r.peers[0]].Propose(ctx, slot, msg.EncodeRegOps(ops)); err != nil {
			t.Fatal(err)
		}
	}
	for _, p := range others {
		waitApplied(t, r.nodes[p], slots)
		wm := r.nodes[p].Applied()
		for _, q := range others {
			if q != p {
				r.nodes[q].ObserveWatermark(p, wm)
			}
		}
	}
	if floor := r.nodes[r.peers[0]].Floor(); floor != slots-retain {
		t.Fatalf("survivor floor = %d, want %d", floor, slots-retain)
	}
	if r.nodes[late].Applied() != 0 {
		t.Fatal("partitioned node advanced; test premise broken")
	}

	// Heal. The laggard's own gap proposal (the sequencer path) lands below
	// the floor and must come back as a checkpoint, not a decision replay.
	r.net.Heal()
	for _, p := range others {
		r.dets[p].Clear(late)
	}
	got, err := r.nodes[late].Propose(ctx, msg.SlotKey(r.nodes[late].LowestUndecidedSlot()),
		msg.EncodeRegOps([]msg.RegOp{{Reg: regKey(msg.RegA, 99), Val: []byte("mine")}}))
	if err != nil && !errors.Is(err, ErrSlotTruncated) {
		t.Fatal(err)
	}
	if err == nil {
		if ops, derr := msg.DecodeRegOps(got); derr != nil || len(ops) != 0 {
			t.Fatalf("stranded gap proposal resolved with %v/%v, want the empty fast-forward value", ops, derr)
		}
	}

	// The laggard fast-forwards past the floor and holds byte-identical
	// register state for every pruned slot's effect.
	waitApplied(t, r.nodes[late], slots-retain)
	if st := r.nodes[late].Stats(); st.CheckpointsInstalled == 0 {
		t.Error("laggard never installed a checkpoint")
	}
	ref := r.nodes[r.peers[0]]
	for i := 1; i <= slots; i++ {
		k := regKey(msg.RegD, uint64(i))
		want, _ := ref.Decided(k)
		deadline := time.Now().Add(5 * time.Second)
		for {
			v, ok := r.nodes[late].Decided(k)
			if ok {
				if !bytes.Equal(v, want) {
					t.Fatalf("register %d diverged after checkpoint: %q vs %q", i, v, want)
				}
				break
			}
			if time.Now().After(deadline) {
				t.Fatalf("laggard never learned register %d", i)
			}
			time.Sleep(time.Millisecond)
		}
	}
	if st := r.nodes[r.peers[0]].Stats(); st.CheckpointsServed == 0 {
		if st2 := r.nodes[r.peers[1]].Stats(); st2.CheckpointsServed == 0 {
			t.Error("no node served a checkpoint; the transfer path was not exercised")
		}
	}
}

// TestGapProbeWithinTailUsesDecisionReplay: a laggard within the retention
// tail is served by CDecision replay (with the burst), not by checkpoint.
func TestGapProbeWithinTailUsesDecisionReplay(t *testing.T) {
	const retain, slots = 16, 6
	r := newRigRetain(t, 3, transport.Options{}, 200*time.Microsecond, retain)
	late := r.peers[2]
	others := []id.NodeID{r.peers[0], r.peers[1]}

	r.net.Partition([]id.NodeID{late}, others)
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	for i := 1; i <= slots; i++ {
		ops := []msg.RegOp{{Reg: regKey(msg.RegD, uint64(i)), Val: []byte(fmt.Sprintf("dec-%d", i))}}
		slot := msg.SlotKey(r.nodes[r.peers[0]].LowestUndecidedSlot())
		if _, err := r.nodes[r.peers[0]].Propose(ctx, slot, msg.EncodeRegOps(ops)); err != nil {
			t.Fatal(err)
		}
	}
	for _, p := range others {
		waitApplied(t, r.nodes[p], slots)
	}
	r.net.Heal()

	// The watermark observation alone (as piggybacked on any message) must
	// trigger the gap probe and pull the whole tail across.
	r.nodes[late].ObserveWatermark(r.peers[0], r.nodes[r.peers[0]].Applied())
	waitApplied(t, r.nodes[late], slots)
	st := r.nodes[late].Stats()
	if st.CheckpointsInstalled != 0 {
		t.Errorf("laggard within the tail installed a checkpoint (floor transfer), want replay only")
	}
	for i := 1; i <= slots; i++ {
		if v, ok := r.nodes[late].Decided(regKey(msg.RegD, uint64(i))); !ok || string(v) != fmt.Sprintf("dec-%d", i) {
			t.Errorf("register %d missing after replay catch-up (%q, %v)", i, v, ok)
		}
	}
}

// TestQuiescentCatchUpBeyondOneBurst: a laggard many more slots behind than
// one gap-burst, in a cluster that has gone quiet (watermarks static), must
// still catch up fully — the probe re-arms on repeated observations of the
// same watermark, it is not gated on the watermark advancing.
func TestQuiescentCatchUpBeyondOneBurst(t *testing.T) {
	const retain, slots = 256, 3*gapBurst + 5
	r := newRigRetain(t, 3, transport.Options{}, 200*time.Microsecond, retain)
	late := r.peers[2]
	others := []id.NodeID{r.peers[0], r.peers[1]}

	r.net.Partition([]id.NodeID{late}, others)
	ctx, cancel := context.WithTimeout(context.Background(), 60*time.Second)
	defer cancel()
	for i := 1; i <= slots; i++ {
		ops := []msg.RegOp{{Reg: regKey(msg.RegD, uint64(i)), Val: []byte(fmt.Sprintf("dec-%d", i))}}
		slot := msg.SlotKey(r.nodes[r.peers[0]].LowestUndecidedSlot())
		if _, err := r.nodes[r.peers[0]].Propose(ctx, slot, msg.EncodeRegOps(ops)); err != nil {
			t.Fatal(err)
		}
	}
	for _, p := range others {
		waitApplied(t, r.nodes[p], slots)
	}
	r.net.Heal()

	// The cluster is quiescent: deliver the SAME static watermark over and
	// over (heartbeats of an idle deployment). One burst covers gapBurst
	// slots, so full catch-up requires the probe to keep re-arming.
	wm := r.nodes[r.peers[0]].Applied()
	deadline := time.Now().Add(30 * time.Second)
	for r.nodes[late].Applied() < slots {
		r.nodes[late].ObserveWatermark(r.peers[0], wm)
		if time.Now().After(deadline) {
			t.Fatalf("laggard stalled at %d/%d applied under a static watermark", r.nodes[late].Applied(), slots)
		}
		time.Sleep(2 * time.Millisecond)
	}
	for i := 1; i <= slots; i++ {
		if v, ok := r.nodes[late].Decided(regKey(msg.RegD, uint64(i))); !ok || string(v) != fmt.Sprintf("dec-%d", i) {
			t.Fatalf("register %d missing after quiescent catch-up (%q, %v)", i, v, ok)
		}
	}
}

// TestAbandonReleasesUndecidedInstance: an instance that can never decide
// (its quorum is gone) is discarded by Abandon — the retirement path — and
// its Propose caller resolves with ErrAbandoned.
func TestAbandonReleasesUndecidedInstance(t *testing.T) {
	r := newRig(t, 3, transport.Options{})
	p := r.peers[0]
	r.net.Partition([]id.NodeID{p}, []id.NodeID{r.peers[1], r.peers[2]})

	k := regKey(msg.RegA, 1)
	errCh := make(chan error, 1)
	go func() {
		_, err := r.nodes[p].Propose(context.Background(), k, []byte("stuck"))
		errCh <- err
	}()
	deadline := time.Now().Add(5 * time.Second)
	for {
		if _, _, ok := r.nodes[p].InstanceState(k); ok {
			break
		}
		if time.Now().After(deadline) {
			t.Fatal("instance never started")
		}
		time.Sleep(time.Millisecond)
	}

	r.nodes[p].Abandon(k)
	select {
	case err := <-errCh:
		if !errors.Is(err, ErrAbandoned) {
			t.Fatalf("Propose returned %v, want ErrAbandoned", err)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("Propose never unblocked after Abandon")
	}
	deadline = time.Now().Add(5 * time.Second)
	for {
		if _, _, ok := r.nodes[p].InstanceState(k); !ok {
			break
		}
		if time.Now().After(deadline) {
			t.Fatal("instance survived Abandon")
		}
		time.Sleep(time.Millisecond)
	}
	if st := r.nodes[p].Stats(); st.Abandoned != 1 {
		t.Errorf("Abandoned = %d, want 1", st.Abandoned)
	}
	// Abandon also drops a decided value (the Forget half of retirement).
	r.net.Heal()
	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
	defer cancel()
	k2 := regKey(msg.RegA, 2)
	if _, err := r.nodes[p].Propose(ctx, k2, []byte("v")); err != nil {
		t.Fatal(err)
	}
	r.nodes[p].Abandon(k2)
	if _, ok := r.nodes[p].Decided(k2); ok {
		t.Error("decided value survived Abandon")
	}
}

// TestSelfMessageCannotResurrectAbandonedInstance replays, deterministically,
// the straggler behind the occasional "instance survived Abandon": the
// abandoned instance's run goroutine can be mid-broadcast when Abandon
// removes it, and its self-addressed round message short-circuits straight
// into Handle. That message must not re-create the instance — behind the
// partition the re-created one would never decide, and nothing would ever
// abandon it again.
func TestSelfMessageCannotResurrectAbandonedInstance(t *testing.T) {
	r := newRig(t, 3, transport.Options{})
	p := r.peers[0]
	r.net.Partition([]id.NodeID{p}, []id.NodeID{r.peers[1], r.peers[2]})

	k := regKey(msg.RegA, 1)
	errCh := make(chan error, 1)
	go func() {
		_, err := r.nodes[p].Propose(context.Background(), k, []byte("stuck"))
		errCh <- err
	}()
	deadline := time.Now().Add(5 * time.Second)
	for {
		if _, _, ok := r.nodes[p].InstanceState(k); ok {
			break
		}
		if time.Now().After(deadline) {
			t.Fatal("instance never started")
		}
		time.Sleep(time.Millisecond)
	}
	r.nodes[p].Abandon(k)
	if err := <-errCh; !errors.Is(err, ErrAbandoned) {
		t.Fatalf("Propose returned %v, want ErrAbandoned", err)
	}
	// The late broadcasts of the abandoned run, addressed to itself.
	r.nodes[p].Handle(p, msg.Estimate{Reg: k, Round: 1, Est: []byte("stuck")})
	r.nodes[p].Handle(p, msg.Propose{Reg: k, Round: 1, Val: []byte("stuck")})
	r.nodes[p].Handle(p, msg.CAck{Reg: k, Round: 1})
	if round, _, ok := r.nodes[p].InstanceState(k); ok {
		t.Fatalf("a self-addressed round message re-created the abandoned instance (round %d)", round)
	}
	// A peer's round message still creates the instance: that is how a
	// passive replica joins a round it has not seen.
	r.nodes[p].Handle(r.peers[1], msg.Estimate{Reg: regKey(msg.RegA, 2), Round: 2, Est: []byte("peer")})
	if _, _, ok := r.nodes[p].InstanceState(regKey(msg.RegA, 2)); !ok {
		t.Fatal("a peer's estimate no longer starts an instance")
	}
}

// TestProposeBelowFloorRejected: the sequencer contract — proposing at or
// below the truncation floor is refused, never re-decided.
func TestProposeBelowFloorRejected(t *testing.T) {
	const retain, slots = 1, 5
	r := newRigRetain(t, 3, transport.Options{}, 200*time.Microsecond, retain)
	decideSlots(t, r, slots)
	syncWatermarks(r)
	n0 := r.nodes[r.peers[0]]
	if n0.Floor() == 0 {
		t.Fatal("floor never advanced; test premise broken")
	}
	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
	defer cancel()
	if _, err := n0.Propose(ctx, msg.SlotKey(1), []byte("zombie")); !errors.Is(err, ErrSlotTruncated) {
		t.Fatalf("Propose below the floor returned %v, want ErrSlotTruncated", err)
	}
	if got := n0.LowestUndecidedSlot(); got <= n0.Floor() {
		t.Fatalf("LowestUndecidedSlot = %d, at or below floor %d", got, n0.Floor())
	}
}
