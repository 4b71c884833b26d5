package main

import (
	"bytes"
	"context"
	"fmt"
	"strconv"
	"sync/atomic"

	"etx/internal/cluster"
	"etx/internal/core"
	"etx/internal/id"
	"etx/internal/kv"
	"etx/internal/msg"
	"etx/internal/transport"
	"etx/internal/xadb"
)

// inproc is one in-process deployment: 3 app servers, 2 hash shards,
// adaptive windows, strict 2PL, memnet without delay and zero simulated
// fsync, driven through client 1.
type inproc struct {
	c        *cluster.Cluster
	cl       *core.Client
	tr       *tracer // nil when untraced
	keys     []string
	shards   int
	replicas int

	// attempts counts logic invocations (one per try).
	attempts atomic.Int64
}

// Deployment shape shared by the in-process workloads.
const (
	inprocApps    = 3
	inprocShards  = 2
	inprocWorkers = 32
)

// startInproc builds and starts a deployment seeded with init. With tr set
// the app servers report their stage spans to it and the network counts
// protocol messages.
func startInproc(w *workload, init []int64, tr *tracer) (*inproc, error) {
	d := &inproc{tr: tr, keys: make([]string, accounts), shards: inprocShards, replicas: w.replicas}
	seed := make([]kv.Write, accounts)
	for i := range d.keys {
		d.keys[i] = key(i)
		seed[i] = kv.Write{Key: d.keys[i], Val: kv.EncodeInt(init[i])}
	}
	cfg := cluster.Config{
		AppServers:      inprocApps,
		Shards:          inprocShards,
		Clients:         1,
		AdaptiveWindows: true,
		Workers:         inprocWorkers,
		ReplicaFactor:   w.replicas,
		Seed:            seed,
		Logic:           core.LogicFunc(d.compute),
	}
	if tr != nil {
		cfg.Hooks = tr.hooks
	}
	c, err := cluster.New(cfg)
	if err != nil {
		return nil, err
	}
	if tr != nil {
		c.Net.AddSniffer(func(ev transport.SniffEvent) {
			if ev.Payload.Kind() != msg.KindHeartbeat {
				tr.msgs.Add(1)
			}
		})
	}
	d.c, d.cl = c, c.Client(1)
	return d, nil
}

func (d *inproc) stop() { d.c.Stop() }

// Request payloads are text: "D req a", "T req a b amt" or "R req a",
// where req is the request's index in the stream (-1 for the set-up
// probe). Results are "req v1 v2".
func appendPayload(buf []byte, i int, o op) []byte {
	switch o.kind {
	case opDeposit:
		buf = append(buf, 'D')
	case opTransfer:
		buf = append(buf, 'T')
	default:
		buf = append(buf, 'R')
	}
	buf = append(buf, ' ')
	buf = strconv.AppendInt(buf, int64(i), 10)
	buf = append(buf, ' ')
	buf = strconv.AppendInt(buf, int64(o.a), 10)
	if o.kind == opTransfer {
		buf = append(buf, ' ')
		buf = strconv.AppendInt(buf, int64(o.b), 10)
		buf = append(buf, ' ')
		buf = strconv.AppendInt(buf, int64(o.amt), 10)
	}
	return buf
}

// parseInts parses the space-separated integers of b after skip leading
// fields.
func parseInts(b []byte, skip int) ([]int64, error) {
	fs := bytes.Fields(b)
	if len(fs) < skip {
		return nil, fmt.Errorf("malformed %q", b)
	}
	out := make([]int64, 0, len(fs)-skip)
	for _, f := range fs[skip:] {
		v, err := strconv.ParseInt(string(f), 10, 64)
		if err != nil {
			return nil, fmt.Errorf("malformed %q: %w", b, err)
		}
		out = append(out, v)
	}
	return out, nil
}

// compute is the bank logic. Transfers take their two keys in key order so
// strict 2PL cannot deadlock, and guard the source account against an
// overdraft at commitment time.
func (d *inproc) compute(ctx context.Context, tx *core.Tx, req []byte) ([]byte, error) {
	d.attempts.Add(1)
	f, err := parseInts(req, 1)
	if err != nil || len(f) < 2 {
		return nil, fmt.Errorf("bad request %q", req)
	}
	rid := tx.RID()
	var t0 int64
	if d.tr != nil {
		t0 = d.tr.now()
		d.tr.bind(rid, f[0])
	}
	var v1, v2 int64
	switch req[0] {
	case 'D':
		v1, err = d.add(ctx, tx, rid, d.keys[f[1]], 1)
	case 'R':
		v1, err = d.read(ctx, tx, rid, d.keys[f[1]])
	case 'T':
		if len(f) != 4 {
			return nil, fmt.Errorf("bad request %q", req)
		}
		from, to, amt := d.keys[f[1]], d.keys[f[2]], f[3]
		if from < to {
			if v1, err = d.debit(ctx, tx, rid, from, amt); err == nil {
				v2, err = d.add(ctx, tx, rid, to, amt)
			}
		} else {
			if v2, err = d.add(ctx, tx, rid, to, amt); err == nil {
				v1, err = d.debit(ctx, tx, rid, from, amt)
			}
		}
	default:
		return nil, fmt.Errorf("bad request %q", req)
	}
	if d.tr != nil {
		d.tr.record(spanLogic, rid, f[0], t0)
	}
	if err != nil {
		return nil, err
	}
	out := strconv.AppendInt(nil, f[0], 10)
	out = append(out, ' ')
	out = strconv.AppendInt(out, v1, 10)
	out = append(out, ' ')
	return strconv.AppendInt(out, v2, 10), nil
}

func (d *inproc) add(ctx context.Context, tx *core.Tx, rid id.ResultID, k string, delta int64) (int64, error) {
	var t0 int64
	if d.tr != nil {
		t0 = d.tr.now()
		defer d.tr.record(spanOp, rid, -1, t0)
	}
	return tx.Add(ctx, k, delta)
}

func (d *inproc) debit(ctx context.Context, tx *core.Tx, rid id.ResultID, k string, amt int64) (int64, error) {
	bal, err := d.add(ctx, tx, rid, k, -amt)
	if err != nil {
		return 0, err
	}
	var t0 int64
	if d.tr != nil {
		t0 = d.tr.now()
		defer d.tr.record(spanOp, rid, -1, t0)
	}
	return bal, tx.CheckAtLeast(ctx, k, 0)
}

func (d *inproc) read(ctx context.Context, tx *core.Tx, rid id.ResultID, k string) (int64, error) {
	var t0 int64
	if d.tr != nil {
		t0 = d.tr.now()
		defer d.tr.record(spanRead, rid, -1, t0)
	}
	_, n, err := tx.GetFast(ctx, k)
	return n, err
}

// issue sends request i through the client handle and checks the result
// names the request it answers.
func (d *inproc) issue(ctx context.Context, i int, o op) (outcome, error) {
	var start int64
	if d.tr != nil {
		start = d.tr.now()
	}
	res, err := d.cl.Issue(ctx, appendPayload(make([]byte, 0, 32), i, o))
	if d.tr != nil && err == nil {
		d.tr.record(spanIssue, id.ResultID{}, int64(i), start)
	}
	if err != nil {
		return outcome{}, err
	}
	f, err := parseInts(res, 0)
	if err != nil {
		return outcome{}, err
	}
	if len(f) != 3 || f[0] != int64(i) {
		return outcome{}, fmt.Errorf("request %d answered with %q", i, res)
	}
	return outcome{f[1], f[2]}, nil
}

// primary returns the engine currently serving shard s.
func (d *inproc) primary(s int) *xadb.Engine {
	node := d.c.Placement().NodeFor(s)
	if v := d.c.View(); v != nil {
		node, _ = v.Primary(s)
	}
	return d.c.Engine(node.Index)
}

// balances reads every account's committed balance from its shard's
// current primary.
func (d *inproc) balances() ([]int64, error) {
	out := make([]int64, accounts)
	for i, k := range d.keys {
		e := d.primary(d.c.Placement().ShardFor(k))
		if e == nil {
			return nil, fmt.Errorf("shard of %s has no serving primary", k)
		}
		v, err := e.Store().GetInt(k)
		if err != nil {
			return nil, fmt.Errorf("read %s: %w", k, err)
		}
		out[i] = v
	}
	return out, nil
}

// snapshot reads every layer's exported counters.
func (d *inproc) snapshot() counters {
	var c counters
	c.attempts = d.attempts.Load()
	for i := 1; i <= inprocApps; i++ {
		a := d.c.App(i)
		if a == nil {
			continue
		}
		cs := a.ConsensusStats()
		c.instances += cs.Instances
		c.rounds += cs.Rounds
		c.consMsgs += cs.Messages
		c.batchOps += cs.BatchOps
		as := a.Stats()
		c.execRetries += as.ExecRetries
		c.staleRejects += as.StaleRejects
	}
	for i := 1; i <= d.shards*max(d.replicas, 1); i++ {
		e := d.c.Engine(i)
		if e == nil {
			continue
		}
		ls := e.LockStats()
		c.lockAcquires += ls.Acquires
		c.lockWaits += ls.Waits
		c.lockWaitNanos += int64(ls.WaitTime)
		c.lockTimeouts += ls.Timeouts
		c.forced += e.StableStore().ForcedWrites()
		c.syncs += e.StableStore().Syncs()
	}
	c.promotions, _ = d.c.Promotions()
	if d.tr != nil {
		c.memnetMsgs = d.tr.msgs.Load()
	}
	return c
}

// lag is the largest replication lag, in records, of any shard primary.
func (d *inproc) lag() uint64 {
	var m uint64
	for i := 1; i <= d.shards*max(d.replicas, 1); i++ {
		if s := d.c.Streamer(i); s != nil {
			m = max(m, s.Lag())
		}
	}
	return m
}

// committedTries maps each delivered request to the try that committed it.
func (d *inproc) committedTries() map[int64]tryKey {
	out := make(map[int64]tryKey)
	for _, dl := range d.cl.Delivered() {
		f, err := parseInts(dl.Result, 0)
		if err == nil && len(f) == 3 {
			out[f[0]] = tryKey{dl.RID.Seq, dl.RID.Try}
		}
	}
	return out
}

// check runs the deployment's own correctness oracle.
func (d *inproc) check() error {
	if rep := d.c.CheckProperties(); !rep.Ok() {
		return fmt.Errorf("oracle: %s", rep)
	}
	return nil
}

func (d *inproc) peakRSSMB() (float64, error) { return peakRSSMB("self") }
