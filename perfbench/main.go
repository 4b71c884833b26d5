// Command perfbench is the repository's benchmark: it deploys the
// e-Transaction stack, drives one traffic mix through one client handle,
// checks every output, and prints end-to-end metrics (untraced run) or
// per-layer metrics (traced run). The last line of standard output is one
// JSON object: {"correct", "attempted", "failed", "metrics"}.
//
//	perfbench --workload pipelined-deposit --seed 1 --seconds 10 --trace 0
//
// See README.md in this directory for the workloads and the metrics.
package main

import (
	"context"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"os/signal"
	"path/filepath"
	"runtime"
	"sort"
	"syscall"
	"time"
)

// workload is one traffic mix against one deployment.
type workload struct {
	name      string
	tcp       bool    // real etxappserver/etxdbserver binaries over loopback
	transfers bool    // hot-transfer mix; otherwise +1 deposits
	replicas  int     // data-tier replica factor
	rate      float64 // open-loop arrivals per second; 0 runs a closed loop
}

var workloads = []*workload{
	{name: "pipelined-deposit", replicas: 1},
	{name: "hot-transfer", transfers: true, replicas: 1},
	{name: "open-replicated", replicas: 2, rate: 2000},
	{name: "tcp-deposit", tcp: true, replicas: 1},
}

// Load-generator settings shared by every workload.
const (
	depth      = 32               // closed-loop outstanding requests
	warm       = time.Second      // load before the measured window
	reqTimeout = 10 * time.Second // per-request deadline, closed loop
	// The open loop refuses arrivals beyond openCap outstanding (a quarter
	// second of arrivals at 2000 req/s) and gives each a 5 s deadline.
	openCap     = 512
	openTimeout = 5 * time.Second
	// maxRate sizes the pre-generated closed-loop stream; a run that
	// exhausts it stops early and is reported as failed.
	maxRate = 50000
	// gomaxprocs is GOMAXPROCS of the benchmark process and of each server
	// process of tcp-deposit, the same on every commit measured.
	gomaxprocs = 1
)

type options struct {
	seed    uint64
	seconds int
	trace   bool
	bin     string // directory holding etxappserver and etxdbserver
	work    string // scratch directory for journals and span files
	// stealCPU is the CPU the benchmark is pinned to, whose steal time is
	// taken out of throughput's and latency's time base; -1 keeps wall time.
	stealCPU int
	// stopInproc stops the measured in-process deployment before run
	// returns. The command leaves it to the process exit: stopping a
	// deployment that has served a run's requests takes seconds (about
	// 15 s after 200k deposits) and measures nothing.
	stopInproc bool
}

// release stops d unless opts leave an in-process deployment to the
// process exit. Server processes are always stopped and reaped.
func release(d deployment, opts options) {
	if _, ok := d.(*inproc); ok && !opts.stopInproc {
		return
	}
	d.stop()
}

func main() {
	w := flag.String("workload", "", "workload name")
	seed := flag.Uint64("seed", 1, "workload seed: keys, operation mix and arrival times")
	seconds := flag.Int("seconds", 10, "length of the measured window")
	trace := flag.Int("trace", 0, "1 runs the traced pass and prints per-layer metrics")
	bin := flag.String("bin", filepath.Join(".bench_build", "bin"), "directory of the server binaries (tcp-deposit)")
	work := flag.String("work", filepath.Join(".bench_build", "work"), "scratch directory for journals and span files")
	stealCPU := flag.Int("steal-cpu", -1, "CPU the benchmark is pinned to: its steal time is left out of throughput's and latency's time base (-1: wall time)")
	flag.Parse()
	runtime.GOMAXPROCS(gomaxprocs)

	var wl *workload
	for _, x := range workloads {
		if x.name == *w {
			wl = x
		}
	}
	if wl == nil || *seconds < 1 {
		fmt.Fprintf(os.Stderr, "perfbench: unknown workload %q or bad --seconds\n", *w)
		os.Exit(2)
	}
	opts := options{seed: *seed, seconds: *seconds, trace: *trace == 1, bin: *bin, work: *work, stealCPU: *stealCPU}
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()
	res, err := run(ctx, wl, opts)
	var cf *checkFailure
	switch {
	case errors.As(err, &cf):
		res.print(os.Stdout)
		fmt.Fprintf(os.Stderr, "perfbench: output check FAILED on %s --seed %d: %v\n", wl.name, opts.seed, cf.err)
		os.Exit(1)
	case err != nil:
		fmt.Fprintf(os.Stderr, "perfbench: %s --seed %d: %v\n", wl.name, opts.seed, err)
		os.Exit(1)
	}
	res.print(os.Stdout)
}

// checkFailure is a run whose outputs were wrong.
type checkFailure struct{ err error }

func (c *checkFailure) Error() string { return c.err.Error() }

// metric is one reported figure; n is its sample count where it has one.
type metric struct {
	name  string
	value float64
	unit  string
	n     int
	note  string
}

// report is a run's outcome. Lines prints every figure for a reader;
// jsonNames selects the ones the final JSON line carries.
type report struct {
	correct           bool
	attempted, failed int
	metrics           []metric
	jsonNames         []string
}

func (r *report) add(name string, v float64, unit string, n int, note string) {
	r.metrics = append(r.metrics, metric{name, v, unit, n, note})
}

func (r *report) print(f io.Writer) {
	type jm struct {
		Value float64 `json:"value"`
		Unit  string  `json:"unit"`
	}
	ms := make(map[string]jm)
	for _, m := range r.metrics {
		line := fmt.Sprintf("%-36s %14.6g %-12s", m.name, m.value, m.unit)
		if m.n > 0 {
			line += fmt.Sprintf(" n=%d", m.n)
		}
		if m.note != "" {
			line += " (" + m.note + ")"
		}
		fmt.Fprintln(f, line)
		ms[m.name] = jm{m.value, m.unit}
	}
	out := struct {
		Correct   bool          `json:"correct"`
		Attempted int           `json:"attempted"`
		Failed    int           `json:"failed"`
		Metrics   map[string]jm `json:"metrics"`
	}{r.correct, r.attempted, r.failed, make(map[string]jm)}
	for _, n := range r.jsonNames {
		out.Metrics[n] = ms[n]
	}
	b, _ := json.Marshal(out) // plain structs and finite floats: cannot fail
	fmt.Fprintln(f, string(b))
}

// End-to-end metrics the JSON line carries on an untraced run. Printed
// but left to the traced run's JSON line: read_* (hot-transfer only),
// failed_frac (0 on a good run; attempted/failed carry it too) and
// peak_rss_mb (the high-water mark of a growing collected heap swings with
// collector phase and with how many requests the host let through).
var e2eNames = []string{"throughput_rps", "latency_p50_ms", "latency_p99_ms", "setup_s"}

// deployment is a running stack the generator drives.
type deployment interface {
	issue(ctx context.Context, i int, o op) (outcome, error)
	snapshot() counters
	lag() uint64
	balances() ([]int64, error)
	check() error
	peakRSSMB() (float64, error)
	stop()
}

// probeOp is the set-up probe: a read of acct/k0 with no effect.
var probeOp = op{kind: opRead}

// setUp starts a deployment and returns it with the time from start to its
// first committed request.
func setUp(ctx context.Context, w *workload, init []int64, tr *tracer, opts options) (deployment, time.Duration, error) {
	t0 := time.Now()
	var d deployment
	var err error
	if w.tcp {
		var td *tcpDeployment
		if td, err = startTCP(init, opts); err == nil {
			td.tr, d = tr, td
		}
	} else {
		d, err = startInproc(w, init, tr)
	}
	if err != nil {
		return nil, 0, err
	}
	pctx, cancel := context.WithTimeout(ctx, 30*time.Second)
	defer cancel()
	if _, err := d.issue(pctx, -1, probeOp); err != nil {
		d.stop()
		return nil, 0, fmt.Errorf("set-up probe: %w", err)
	}
	return d, time.Since(t0), nil
}

// segment is one measured stretch of load on one deployment.
type segment struct {
	dur       time.Duration
	w0, w1    time.Duration // the measured window, as offsets from base
	base      time.Time
	recs      []rec
	ops       []op
	delta     counters // counter movement over the window
	lagMax    uint64
	lateMax   time.Duration
	exhausted bool
	steal     []stealSample // cumulative steal of the pinned CPU from the window on
}

type stealSample struct{ at, stolen time.Duration }

// measure drives w's load for warm+dur and records the window's counters.
func measure(ctx context.Context, d deployment, w *workload, opts options, dur time.Duration) segment {
	s := segment{dur: dur, w0: warm, w1: warm + dur}
	var arrivals []time.Duration
	if w.rate > 0 {
		arrivals = genArrivals(opts.seed, w.rate, s.w1)
		s.ops = genOps(w, opts.seed, len(arrivals))
	} else {
		s.ops = genOps(w, opts.seed, int(maxRate*s.w1.Seconds()))
	}
	s.base = time.Now()
	loaded := make(chan struct{}) // closed when the load has drained
	done := make(chan struct{})
	go func() {
		defer close(done)
		sample := func() {
			if opts.stealCPU < 0 {
				return
			}
			if st, err := stolen(opts.stealCPU); err == nil {
				s.steal = append(s.steal, stealSample{time.Since(s.base), st})
			}
		}
		time.Sleep(time.Until(s.base.Add(s.w0)))
		c0 := d.snapshot()
		t := time.NewTicker(10 * time.Millisecond)
		defer t.Stop()
		for sample(); time.Since(s.base) < s.w1; sample() {
			<-t.C
			s.lagMax = max(s.lagMax, d.lag())
		}
		s.delta = d.snapshot().sub(c0)
		// Requests issued inside the window may finish after it; keep
		// the steal clock running until they have.
		for {
			select {
			case <-loaded:
				sample()
				return
			case <-t.C:
				sample()
			}
		}
	}()
	if w.rate > 0 {
		s.recs, s.lateMax = openLoop(ctx, d.issue, s.ops, arrivals, s.base, openCap, openTimeout)
	} else {
		s.recs, s.exhausted = closedLoop(ctx, d.issue, s.ops, depth, s.base, s.w1, reqTimeout)
	}
	close(loaded)
	<-done
	return s
}

// window summarizes the requests of a segment's measured window.
type window struct {
	commits           int // committed with completion inside the window
	attempted, failed int // started inside the window
	refused, timedOut int
	lat, read         []float64 // ms less steal, committed requests started inside
	latWall           []float64 // ms, lat before steal is taken out
	stolen            time.Duration

	// The window cut into one-second slices: commits completing in each
	// and the time the host stole from the pinned CPU in each.
	sliceCommits []int
	sliceStolen  []time.Duration
}

func (s *segment) window() window {
	var wd window
	k := max(1, int(s.dur/time.Second))
	wd.sliceCommits = make([]int, k)
	for _, r := range s.recs {
		if r.st == stOK && r.end >= s.w0 && r.end < s.w1 {
			wd.commits++
			wd.sliceCommits[min(k-1, int(int64(r.end-s.w0)*int64(k)/int64(s.dur)))]++
		}
		if r.start < s.w0 || r.start >= s.w1 {
			continue
		}
		wd.attempted++
		switch r.st {
		case stOK:
			wall := r.end - r.start
			l := max(0, wall-(s.stolenAt(r.end)-s.stolenAt(r.start))).Seconds() * 1000
			if s.ops[r.i].kind == opRead {
				wd.read = append(wd.read, l)
			} else {
				wd.lat = append(wd.lat, l)
				wd.latWall = append(wd.latWall, wall.Seconds()*1000)
			}
			continue
		case stRefused:
			wd.refused++
		case stTimeout:
			wd.timedOut++
		}
		wd.failed++
	}
	if s.exhausted {
		wd.failed++ // the stream ran dry: the measurement is void
	}
	wd.sliceStolen = make([]time.Duration, k)
	for j := range wd.sliceStolen {
		a := s.w0 + s.dur*time.Duration(j)/time.Duration(k)
		b := s.w0 + s.dur*time.Duration(j+1)/time.Duration(k)
		wd.sliceStolen[j] = s.stolenAt(b) - s.stolenAt(a)
		wd.stolen += wd.sliceStolen[j]
	}
	return wd
}

// stolenAt interpolates the pinned CPU's cumulative steal at offset t; 0
// when steal is not sampled.
func (s *segment) stolenAt(t time.Duration) time.Duration {
	i := sort.Search(len(s.steal), func(i int) bool { return s.steal[i].at >= t })
	switch {
	case len(s.steal) == 0:
		return 0
	case i == 0:
		return s.steal[0].stolen
	case i == len(s.steal):
		return s.steal[i-1].stolen
	}
	p, q := s.steal[i-1], s.steal[i]
	return p.stolen + (q.stolen-p.stolen)*(t-p.at)/(q.at-p.at)
}

// throughput is the median over the window's slices of the commit rate,
// each slice's time base being its length less the time the host stole
// from the pinned CPU in it. A stall or collector pause that hits one
// slice moves the median less than it moves the whole-window mean.
func (wd window) throughput(dur time.Duration) float64 {
	k := len(wd.sliceCommits)
	rates := make([]float64, k)
	for j := range rates {
		rates[j] = float64(wd.sliceCommits[j]) / (dur/time.Duration(k) - wd.sliceStolen[j]).Seconds()
	}
	return quantile(rates, 0.5)
}

// run executes one benchmark invocation.
func run(ctx context.Context, w *workload, opts options) (*report, error) {
	if err := os.MkdirAll(opts.work, 0o755); err != nil {
		return nil, err
	}
	init := initialBalances(opts.seed)
	dur := time.Duration(opts.seconds) * time.Second
	if opts.trace {
		return runTraced(ctx, w, init, dur, opts)
	}

	// Set up several times and report the median; the last deployment
	// carries the measured load.
	const setups = 9
	var times []float64
	var d deployment
	for i := 0; i < setups; i++ {
		if d != nil {
			d.stop()
		}
		var t time.Duration
		var err error
		if d, t, err = setUp(ctx, w, init, nil, opts); err != nil {
			return nil, err
		}
		times = append(times, t.Seconds())
	}
	defer release(d, opts)
	seg := measure(ctx, d, w, opts, dur)
	wd := seg.window()
	r := &report{attempted: wd.attempted, failed: wd.failed, jsonNames: e2eNames}
	cerr := verify(w, init, &seg, d)
	r.correct = cerr == nil
	rss, err := d.peakRSSMB()
	if err != nil {
		return nil, err
	}
	sort.Float64s(times)
	r.add("throughput_rps", wd.throughput(dur), "1/s", wd.commits,
		fmt.Sprintf("median of %d one-second slices, steal excluded", len(wd.sliceCommits)))
	r.add("throughput_wall_rps", float64(wd.commits)/dur.Seconds(), "1/s", wd.commits, "mean over the window, wall time")
	r.add("steal_frac", ratio(float64(wd.stolen), float64(dur)), "frac", 0, "share of the window stolen from the pinned CPU")
	r.add("latency_p50_ms", quantile(wd.lat, 0.50), "ms", len(wd.lat), "steal excluded")
	r.add("latency_p99_ms", quantile(wd.lat, 0.99), "ms", len(wd.lat), "steal excluded")
	r.add("latency_wall_p50_ms", quantile(wd.latWall, 0.50), "ms", len(wd.latWall), "wall time")
	r.add("latency_wall_p99_ms", quantile(wd.latWall, 0.99), "ms", len(wd.latWall), "wall time")
	if w.transfers {
		r.add("read_p50_ms", quantile(wd.read, 0.50), "ms", len(wd.read), "")
		r.add("read_p99_ms", quantile(wd.read, 0.99), "ms", len(wd.read), "")
	}
	r.add("failed_frac", ratio(float64(wd.failed), float64(wd.attempted)), "frac", wd.attempted,
		fmt.Sprintf("%d timed out, %d refused", wd.timedOut, wd.refused))
	r.add("setup_s", times[len(times)/2], "s", len(times), "median of set-ups")
	r.add("peak_rss_mb", rss, "MiB", 0, "")
	if cerr != nil {
		return r, &checkFailure{cerr}
	}
	return r, nil
}

func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}
