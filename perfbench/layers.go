package main

import (
	"cmp"
	"context"
	"fmt"
	"path/filepath"
	"time"
)

// runTraced measures an untraced reference half-window on one deployment
// and a traced half-window on a fresh one, then reports the per-layer
// metrics of the traced half, trace.overhead_frac from the two
// throughputs, and the reference half's read latency, failure share and
// peak memory.
func runTraced(ctx context.Context, w *workload, init []int64, dur time.Duration, opts options) (*report, error) {
	half := max(dur/2, time.Second)
	d, _, err := setUp(ctx, w, init, nil, opts)
	if err != nil {
		return nil, err
	}
	ref := measure(ctx, d, w, opts, half)
	refErr := verify(w, init, &ref, d)
	rss, err := d.peakRSSMB()
	d.stop()
	if err != nil {
		return nil, err
	}
	refW := ref.window()

	tr := newTracer()
	d, _, err = setUp(ctx, w, init, tr, opts)
	if err != nil {
		return nil, err
	}
	defer release(d, opts)
	seg := measure(ctx, d, w, opts, half)
	cerr := verify(w, init, &seg, d)
	if cerr == nil {
		cerr = refErr
	}
	wd := seg.window()
	var committed map[int64]tryKey
	if ip, ok := d.(*inproc); ok {
		committed = ip.committedTries()
	}
	off := seg.base.Sub(tr.base)
	ts, err := tr.analyze(seg.w0+off, seg.w1+off, committed, filepath.Join(opts.work, w.name+".spans.tsv"))
	if err != nil {
		return nil, fmt.Errorf("write spans: %w", err)
	}

	r := &report{correct: cerr == nil, attempted: wd.attempted + refW.attempted, failed: wd.failed + refW.failed, jsonNames: layerNames}
	c := seg.delta
	commits := float64(wd.commits)
	per := func(x float64) float64 { return ratio(x, commits) }
	inproc := !w.tcp
	na := func(applies bool) string {
		if applies {
			return ""
		}
		return "layer not in this deployment"
	}

	r.add("client.attempts_per_commit", per(float64(c.attempts)), "tries/commit", wd.commits, na(inproc))
	for _, st := range []struct {
		name string
		s    spanName
	}{
		{"core.log_start_ms", spanLogStart}, {"core.sql_ms", spanSQL}, {"core.prepare_ms", spanPrepare},
		{"core.log_outcome_ms", spanLogOutcome}, {"core.commit_ms", spanCommit},
	} {
		r.add(st.name, ts.stageMs[st.s], "ms", ts.joined, na(inproc))
	}
	r.add("core.unstaged_ms", ts.unstagedMs, "ms", ts.joined, na(inproc))
	r.add("core.exec_retries", float64(c.execRetries), "count", 0, na(inproc))
	r.add("core.stale_rejects", float64(c.staleRejects), "count", 0, na(inproc))
	r.add("consensus.instances_per_commit", per(float64(c.instances)), "inst/commit", wd.commits, na(inproc))
	r.add("consensus.msgs_per_commit", per(float64(c.consMsgs)), "msgs/commit", wd.commits, na(inproc))
	r.add("consensus.ops_per_instance", ratio(float64(c.batchOps), float64(c.instances)), "ops/inst", int(c.instances), na(inproc))
	r.add("consensus.rounds_per_instance", ratio(float64(c.rounds), float64(c.instances)), "rounds/inst", int(c.instances), na(inproc))
	r.add("xadb.op_p50_ms", ts.opP50, "ms", ts.ops, na(inproc))
	r.add("xadb.op_p99_ms", ts.opP99, "ms", ts.ops, na(inproc))
	noReads := ""
	switch {
	case w.tcp:
		noReads = na(false)
	case !w.transfers:
		noReads = "no reads in this workload"
	}
	r.add("xadb.read_p50_ms", ts.readP50, "ms", ts.reads, noReads)
	r.add("lockmgr.acquires_per_commit", per(float64(c.lockAcquires)), "acq/commit", wd.commits, na(inproc))
	r.add("lockmgr.waits_per_commit", per(float64(c.lockWaits)), "waits/commit", wd.commits, na(inproc))
	r.add("lockmgr.wait_ms_per_commit", per(ms(c.lockWaitNanos)), "ms/commit", wd.commits, na(inproc))
	r.add("lockmgr.timeouts", float64(c.lockTimeouts), "count", 0, na(inproc))
	r.add("stablestore.forced_per_commit", per(float64(c.forced)), "forced/commit", wd.commits, na(inproc))
	r.add("stablestore.syncs_per_commit", per(float64(c.syncs)), "syncs/commit", wd.commits, na(inproc))
	r.add("stablestore.forced_per_sync", ratio(float64(c.forced), float64(c.syncs)), "forced/sync", int(c.syncs), na(inproc))
	r.add("transport.msgs_per_commit", per(float64(c.memnetMsgs)), "msgs/commit", wd.commits, na(inproc))
	r.add("repl.lag_max_records", float64(seg.lagMax), "records", 0, na(w.replicas > 1))
	r.add("repl.promotions", float64(c.promotions), "count", 0, na(w.replicas > 1))
	r.add("proc.app_cpu_ms_per_commit", per(ticksMs(c.appCPUTicks)), "ms/commit", wd.commits, na(w.tcp))
	r.add("proc.db_cpu_ms_per_commit", per(ticksMs(c.dbCPUTicks)), "ms/commit", wd.commits, na(w.tcp))
	r.add("proc.db_write_bytes_per_commit", per(float64(c.dbWriteBytes)), "B/commit", wd.commits, na(w.tcp))
	r.add("proc.db_write_syscalls_per_commit", per(float64(c.dbWriteCalls)), "calls/commit", wd.commits, na(w.tcp))
	r.add("gen.late_ms_max", ms(int64(seg.lateMax)), "ms", 0, na(w.rate > 0))
	r.add("gen.refused", float64(wd.refused), "count", 0, na(w.rate > 0))
	r.add("trace.sql_self_ms", ts.sqlSelf, "ms", 0, na(inproc))
	r.add("trace.logic_self_ms", ts.logicSelf, "ms", 0, na(inproc))
	r.add("trace.overhead_frac", 1-ratio(wd.throughput(half), refW.throughput(half)), "frac", 0, "")
	r.add("read_p50_ms", quantile(refW.read, 0.50), "ms", len(refW.read), cmp.Or(noReads, "untraced half"))
	r.add("read_p99_ms", quantile(refW.read, 0.99), "ms", len(refW.read), cmp.Or(noReads, "untraced half"))
	r.add("failed_frac", ratio(float64(refW.failed), float64(refW.attempted)), "frac", refW.attempted, "untraced half")
	r.add("peak_rss_mb", rss, "MiB", 0, "untraced half")
	if cerr != nil {
		return r, &checkFailure{cerr}
	}
	return r, nil
}

// layerNames lists the per-layer metrics of the traced run's JSON line.
var layerNames = []string{
	"client.attempts_per_commit",
	"core.log_start_ms", "core.sql_ms", "core.prepare_ms", "core.log_outcome_ms", "core.commit_ms",
	"core.unstaged_ms", "core.exec_retries", "core.stale_rejects",
	"consensus.instances_per_commit", "consensus.msgs_per_commit", "consensus.ops_per_instance", "consensus.rounds_per_instance",
	"xadb.op_p50_ms", "xadb.op_p99_ms", "xadb.read_p50_ms",
	"lockmgr.acquires_per_commit", "lockmgr.waits_per_commit", "lockmgr.wait_ms_per_commit", "lockmgr.timeouts",
	"stablestore.forced_per_commit", "stablestore.syncs_per_commit", "stablestore.forced_per_sync",
	"transport.msgs_per_commit",
	"repl.lag_max_records", "repl.promotions",
	"proc.app_cpu_ms_per_commit", "proc.db_cpu_ms_per_commit", "proc.db_write_bytes_per_commit", "proc.db_write_syscalls_per_commit",
	"gen.late_ms_max", "gen.refused",
	"trace.sql_self_ms", "trace.logic_self_ms", "trace.overhead_frac",
	"read_p50_ms", "read_p99_ms", "failed_frac", "peak_rss_mb",
}

func ticksMs(t int64) float64 { return float64(t) * 1000 / clockTicks }
