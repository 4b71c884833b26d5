package main

import (
	"bufio"
	"fmt"
	"os"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"etx/internal/core"
	"etx/internal/id"
)

// spanName identifies the boundary a span was recorded at.
type spanName uint8

const (
	spanIssue      spanName = iota // etx.issue: the client's Issue call (root)
	spanLogStart                   // core.Hooks log-start: the regA write
	spanSQL                        // core.Hooks SQL: the logic's run
	spanPrepare                    // core.Hooks prepare: the vote round
	spanLogOutcome                 // core.Hooks log-outcome: the regD write
	spanCommit                     // core.Hooks commit: decide/ack round
	spanLogic                      // core.logic: the benchmark's logic body
	spanOp                         // xadb.op: one core.Tx data call
	spanRead                       // xadb.read: one core.Tx.GetFast call
	numSpanNames
)

var spanNames = [numSpanNames]string{
	"etx.issue", "core.log_start", "core.sql", "core.prepare",
	"core.log_outcome", "core.commit", "core.logic", "xadb.op", "xadb.read",
}

// stages are the app server's stage spans, in protocol order.
var stages = []spanName{spanLogStart, spanSQL, spanPrepare, spanLogOutcome, spanCommit}

var hookSpans = map[core.Span]spanName{
	core.SpanLogStart:   spanLogStart,
	core.SpanSQL:        spanSQL,
	core.SpanPrepare:    spanPrepare,
	core.SpanLogOutcome: spanLogOutcome,
	core.SpanCommit:     spanCommit,
}

// span is one recorded interval. Times are nanoseconds since the tracer's
// base. Root spans carry the request id; the others carry the try (seq,
// try) they ran for and get the request id in analyze, through bind.
type span struct {
	name       spanName
	server     uint8
	req        int64
	seq, try   uint64
	start, end int64
}

type tryKey struct{ seq, try uint64 }

// tracer keeps every span of a traced run in memory.
type tracer struct {
	base time.Time
	msgs atomic.Int64 // protocol messages sent on memnet (heartbeats excluded)

	mu    sync.Mutex
	spans []span
	reqOf map[tryKey]int64
}

func newTracer() *tracer {
	return &tracer{base: time.Now(), reqOf: make(map[tryKey]int64)}
}

func (t *tracer) now() int64 { return int64(time.Since(t.base)) }

// record closes a span that began at start.
func (t *tracer) record(name spanName, rid id.ResultID, req, start int64) {
	t.add(span{name: name, req: req, seq: rid.Seq, try: rid.Try, start: start, end: t.now()})
}

func (t *tracer) add(s span) {
	t.mu.Lock()
	t.spans = append(t.spans, s)
	t.mu.Unlock()
}

// bind records which request a try belongs to.
func (t *tracer) bind(rid id.ResultID, req int64) {
	t.mu.Lock()
	t.reqOf[tryKey{rid.Seq, rid.Try}] = req
	t.mu.Unlock()
}

// hooks returns app server self's instrumentation: each stage span is
// recorded as ending when reported.
func (t *tracer) hooks(self id.NodeID) *core.Hooks {
	return &core.Hooks{Span: func(rid id.ResultID, s core.Span, d time.Duration) {
		name, ok := hookSpans[s]
		if !ok {
			return
		}
		end := t.now()
		t.add(span{name: name, server: uint8(self.Index), req: -1, seq: rid.Seq, try: rid.Try, start: end - int64(d), end: end})
	}}
}

// traceStats are the span-derived per-layer figures of a window.
type traceStats struct {
	stageMs    [numSpanNames]float64 // mean per committed request
	unstagedMs float64
	sqlSelf    float64 // mean self time of core.sql
	logicSelf  float64 // mean self time of core.logic
	opP50      float64
	opP99      float64
	readP50    float64
	joined     int // committed requests whose stages were joined
	ops, reads int
}

// analyze joins the spans of requests issued in [w0, w1) and writes every
// span to path with its parent. committed maps a request to the try that
// committed it.
func (t *tracer) analyze(w0, w1 time.Duration, committed map[int64]tryKey, path string) (traceStats, error) {
	t.mu.Lock()
	spans := t.spans
	reqOf := t.reqOf
	t.mu.Unlock()

	byTry := make(map[tryKey][]int)
	issueOf := make(map[int64]int)
	for i, s := range spans {
		if s.name == spanIssue {
			issueOf[s.req] = i
		} else {
			k := tryKey{s.seq, s.try}
			byTry[k] = append(byTry[k], i)
		}
	}
	// The executor of a try is the server that ran its logic; other
	// servers may report a losing regA write for it.
	executor := func(k tryKey) uint8 {
		for _, i := range byTry[k] {
			if spans[i].name == spanSQL {
				return spans[i].server
			}
		}
		return 0
	}
	children := make(map[int][]int)
	parent := make([]int, len(spans))
	for i := range parent {
		parent[i] = -1
	}
	for k, idx := range byTry {
		req, bound := reqOf[k]
		root := -1
		if i, ok := issueOf[req]; ok && bound {
			root = i
		}
		sql, logic := -1, -1
		for _, i := range idx {
			switch spans[i].name {
			case spanSQL:
				sql = i
			case spanLogic:
				logic = i
			}
		}
		for _, i := range idx {
			if bound {
				spans[i].req = req
			}
			p := -1
			switch spans[i].name {
			case spanLogic:
				p = sql
			case spanOp, spanRead:
				p = logic
			}
			if p < 0 {
				p = root
			}
			parent[i] = p
			if p >= 0 {
				children[p] = append(children[p], i)
			}
		}
	}

	in := func(s span) bool { return s.start >= int64(w0) && s.start < int64(w1) }
	var st traceStats
	var ops, reads []float64
	var sqlN, logicN int
	for i, s := range spans {
		if !in(s) {
			continue
		}
		switch s.name {
		case spanOp:
			ops = append(ops, ms(s.end-s.start))
		case spanRead:
			reads = append(reads, ms(s.end-s.start))
		case spanSQL:
			st.sqlSelf += ms(selfTime(spans, i, children[i]))
			sqlN++
		case spanLogic:
			st.logicSelf += ms(selfTime(spans, i, children[i]))
			logicN++
		}
	}
	for req, i := range issueOf {
		s := spans[i]
		k, ok := committed[req]
		if !in(s) || !ok {
			continue
		}
		ex := executor(k)
		var staged int64
		for _, j := range byTry[k] {
			c := spans[j]
			if c.name >= spanLogic || (c.name == spanLogStart && c.server != ex) {
				continue
			}
			st.stageMs[c.name] += ms(c.end - c.start)
			staged += c.end - c.start
		}
		st.unstagedMs += ms(s.end - s.start - staged)
		st.joined++
	}
	if st.joined > 0 {
		n := float64(st.joined)
		for _, name := range stages {
			st.stageMs[name] /= n
		}
		st.unstagedMs /= n
	}
	if sqlN > 0 {
		st.sqlSelf /= float64(sqlN)
	}
	if logicN > 0 {
		st.logicSelf /= float64(logicN)
	}
	st.ops, st.reads = len(ops), len(reads)
	st.opP50, st.opP99 = quantile(ops, 0.50), quantile(ops, 0.99)
	st.readP50 = quantile(reads, 0.50)
	return st, writeSpans(path, spans, parent)
}

// selfTime is span i's duration minus the part of it its children cover.
func selfTime(spans []span, i int, kids []int) int64 {
	p := spans[i]
	iv := make([][2]int64, 0, len(kids))
	for _, k := range kids {
		s, e := max(spans[k].start, p.start), min(spans[k].end, p.end)
		if s < e {
			iv = append(iv, [2]int64{s, e})
		}
	}
	sort.Slice(iv, func(a, b int) bool { return iv[a][0] < iv[b][0] })
	covered, reach := int64(0), p.start
	for _, x := range iv {
		s := max(x[0], reach)
		if x[1] > s {
			covered += x[1] - s
			reach = x[1]
		}
	}
	return p.end - p.start - covered
}

// writeSpans writes one span per line: id, parent id (-1 for a root),
// request id (-1 when unknown, and for the set-up probe and the final
// balance reads), name, start and end in ns since the run's base,
// reporting app server, seq and try.
func writeSpans(path string, spans []span, parent []int) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	w := bufio.NewWriter(f)
	fmt.Fprintln(w, "id\tparent\treq\tname\tstart_ns\tend_ns\tserver\tseq\ttry")
	for i, s := range spans {
		fmt.Fprintf(w, "%d\t%d\t%d\t%s\t%d\t%d\t%d\t%d\t%d\n",
			i, parent[i], s.req, spanNames[s.name], s.start, s.end, s.server, s.seq, s.try)
	}
	if err := w.Flush(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

func ms(ns int64) float64 { return float64(ns) / 1e6 }
