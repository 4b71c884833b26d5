package bench

import (
	"strings"
	"testing"

	"etx/internal/msg"
)

// The experiment tests run at a small scale so the whole file finishes in a
// few seconds while still asserting every shape claim under reproduction.

func TestFigure8ReproducesPaperShape(t *testing.T) {
	if raceEnabled {
		t.Skip("timing-shape assertions are meaningless under the race detector's overhead")
	}
	// A single scheduler hiccup on a loaded one-core machine can blow a
	// column's confidence interval without touching the shape; re-measure
	// once before treating noise as failure. Scale 0.05 (the package
	// default) keeps a request near 12 ms of real time: at 0.02 one
	// half-millisecond preemption, routine while sibling test packages load
	// every core, is already a tenth of a request.
	var f *Figure8
	var err error
	for attempt := 0; attempt < 2; attempt++ {
		f, err = RunFigure8(Figure8Config{Scale: 0.05, Requests: 12, Warmup: 2})
		if err != nil {
			t.Fatal(err)
		}
		noisy := false
		for _, col := range []Figure8Column{f.Baseline, f.AR, f.TwoPC} {
			if col.TotalCI90 > 0.1*col.Total {
				noisy = true
			}
		}
		if !noisy {
			break
		}
		t.Logf("attempt %d noisy (CIs %.1f/%.1f/%.1f), re-measuring",
			attempt+1, f.Baseline.TotalCI90, f.AR.TotalCI90, f.TwoPC.TotalCI90)
	}
	t.Logf("\n%s", f)

	// Ordering: baseline < AR < 2PC (who wins).
	if !(f.Baseline.Total < f.AR.Total && f.AR.Total < f.TwoPC.Total) {
		t.Fatalf("total ordering broken: baseline=%.1f AR=%.1f 2PC=%.1f",
			f.Baseline.Total, f.AR.Total, f.TwoPC.Total)
	}
	// Magnitudes: AR overhead in the paper's ballpark (16%), clearly below
	// 2PC's (23%).
	if f.AR.Overhead < 5 || f.AR.Overhead > 25 {
		t.Errorf("AR overhead %.1f%%, want near the paper's 16%%", f.AR.Overhead)
	}
	if f.TwoPC.Overhead <= f.AR.Overhead+2 {
		t.Errorf("2PC overhead %.1f%% must clearly exceed AR's %.1f%%",
			f.TwoPC.Overhead, f.AR.Overhead)
	}
	// Mechanism: AR's log rows are in-memory register rounds, much cheaper
	// than 2PC's forced disk writes (the paper's "we save about 25ms" point).
	if f.AR.LogStart >= f.TwoPC.LogStart || f.AR.LogOutcome >= f.TwoPC.LogOutcome {
		t.Errorf("AR log rows (%.1f/%.1f) must undercut 2PC's (%.1f/%.1f)",
			f.AR.LogStart, f.AR.LogOutcome, f.TwoPC.LogStart, f.TwoPC.LogOutcome)
	}
	// The baseline has no prepare phase and no logs.
	if f.Baseline.Prepare != 0 || f.Baseline.LogStart != 0 || f.Baseline.LogOutcome != 0 {
		t.Errorf("baseline must have empty prepare/log rows: %+v", f.Baseline)
	}
	// The paper's methodology: CI width under 10% of the mean (already
	// re-measured once above if a scheduling outlier hit a column).
	for _, col := range []Figure8Column{f.Baseline, f.AR, f.TwoPC} {
		if col.TotalCI90 > 0.1*col.Total {
			t.Errorf("%s: CI ±%.1f exceeds 10%% of mean %.1f even after re-measuring",
				col.Protocol, col.TotalCI90, col.Total)
		}
	}
}

func TestFigure7MessagePatterns(t *testing.T) {
	f, err := RunFigure7(0.01)
	if err != nil {
		t.Fatal(err)
	}
	t.Logf("\n%s", f)
	byName := make(map[string]ProtocolTrace)
	for _, p := range f.Protocols {
		name := p.Name
		if idx := strings.IndexByte(name, ' '); idx > 0 {
			name = name[:idx]
		}
		byName[name] = p
	}
	base, ok1 := byName[ProtocolBaseline]
	twoPC, ok2 := byName[Protocol2PC]
	pb, ok3 := byName[ProtocolPB]
	ar, ok4 := byName[ProtocolAR]
	if !ok1 || !ok2 || !ok3 || !ok4 {
		t.Fatalf("missing protocols in report: %v", f.Protocols)
	}
	// The diagrams' ordering of communication complexity.
	if !(base.Messages < twoPC.Messages && twoPC.Messages < pb.Messages && pb.Messages < ar.Messages) {
		t.Errorf("message ordering broken: baseline=%d 2PC=%d PB=%d AR=%d",
			base.Messages, twoPC.Messages, pb.Messages, ar.Messages)
	}
	// Structural checks straight off Figure 7: the baseline has no prepare,
	// 2PC adds prepare/vote, PB adds the start/outcome records, AR adds the
	// consensus traffic of the two register writes.
	if base.Counts[kindOf("Prepare")] != 0 {
		t.Error("baseline must not prepare")
	}
	if twoPC.Counts[kindOf("Prepare")] != 1 || twoPC.Counts[kindOf("Vote")] != 1 {
		t.Errorf("2PC prepare/vote counts: %v", twoPC.Counts)
	}
	if pb.Counts[kindOf("PBStart")] != 1 || pb.Counts[kindOf("PBOutcome")] != 1 {
		t.Errorf("PB start/outcome counts: %v", pb.Counts)
	}
	if ar.Counts[kindOf("Propose")] == 0 || ar.Counts[kindOf("Decision")] == 0 {
		t.Errorf("AR consensus traffic missing: %v", ar.Counts)
	}
}

func TestFigure1Scenarios(t *testing.T) {
	f, err := RunFigure1(0.01)
	if err != nil {
		t.Fatal(err)
	}
	t.Logf("\n%s", f)
	if len(f.Scenarios) != 4 {
		t.Fatalf("want 4 scenarios, got %d", len(f.Scenarios))
	}
	// (a) one try; (b) two tries; (c) fail-over yet still try 1 (the
	// crashed primary's result survives through regD); (d) two tries.
	wantTries := []uint64{1, 2, 1, 2}
	for i, sc := range f.Scenarios {
		if sc.Tries != wantTries[i] {
			t.Errorf("%s: tries = %d, want %d", sc.Name, sc.Tries, wantTries[i])
		}
	}
	if !f.Scenarios[2].CrashRan || !f.Scenarios[3].CrashRan {
		t.Error("fail-over scenarios must actually crash the primary")
	}
}

func TestFailoverLatencyDominatedBySuspicion(t *testing.T) {
	f, err := RunFailover(FailoverConfig{Scale: 0.01, Runs: 2, SuspectTimeout: 25 * 1e6})
	if err != nil {
		t.Fatal(err)
	}
	t.Logf("\n%s", f)
	if len(f.Rows) != 5 {
		t.Fatalf("want 5 crash points, got %d", len(f.Rows))
	}
	for _, r := range f.Rows {
		if r.Latency.Mean <= f.NoCrash.Mean {
			t.Errorf("%s: failover latency %.1fms not above failure-free %.1fms",
				r.Point, r.Latency.Mean, f.NoCrash.Mean)
		}
	}
}

func TestSuspicionExperimentSeparatesProtocols(t *testing.T) {
	s, err := RunSuspicion(0.01, 3)
	if err != nil {
		t.Fatal(err)
	}
	t.Logf("\n%s", s)
	if s.PBInconsistent == 0 {
		t.Error("primary-backup must show inconsistencies under false suspicion")
	}
	if s.ARInconsistent != 0 {
		t.Errorf("AR showed %d inconsistencies; the wo-registers must prevent all", s.ARInconsistent)
	}
	if s.ARDeliveredAll != s.Runs {
		t.Errorf("AR delivered %d/%d runs", s.ARDeliveredAll, s.Runs)
	}
}

func TestWORegisterMicrobench(t *testing.T) {
	w, err := RunWORegister(0.01, 3, 5)
	if err != nil {
		t.Fatal(err)
	}
	t.Logf("\n%s", w)
	if w.Uncontended.Mean <= 0 || w.Contended.Mean <= 0 {
		t.Error("empty samples")
	}
}

func TestGCAblationReclaimsRegisters(t *testing.T) {
	g, err := RunGCAblation(40)
	if err != nil {
		t.Fatal(err)
	}
	t.Logf("\n%s", g)
	if g.KeysWith >= g.KeysWithout {
		t.Errorf("retirement must reduce retained keys: with=%d without=%d",
			g.KeysWith, g.KeysWithout)
	}
	if g.KeysWithout == 0 {
		t.Error("without retirement, register keys must accumulate")
	}
}

func TestPatienceSweepMorphsRegimes(t *testing.T) {
	p, err := RunPatience(0.01, 4)
	if err != nil {
		t.Fatal(err)
	}
	t.Logf("\n%s", p)
	if len(p.Rows) != 4 {
		t.Fatalf("want 4 patience settings, got %d", len(p.Rows))
	}
	impatient := p.Rows[0]
	patient := p.Rows[len(p.Rows)-1]
	// Impatient clients broadcast: more replicas race on regA and more
	// messages fly; patient clients leave the primary alone.
	if impatient.RegARaces <= patient.RegARaces {
		t.Errorf("regA racers: impatient %.1f <= patient %.1f; the regimes must differ",
			impatient.RegARaces, patient.RegARaces)
	}
	if patient.RegARaces > 1.5 {
		t.Errorf("patient regime should be primary-backup-like, got %.1f racers", patient.RegARaces)
	}
	if impatient.Messages <= patient.Messages {
		t.Errorf("messages: impatient %.1f <= patient %.1f", impatient.Messages, patient.Messages)
	}
}

func TestShardScalingRoutesToParticipants(t *testing.T) {
	s, err := RunShards(ShardsConfig{Scale: 0.01, Requests: 48, InFlight: 12, Shards: []int{1, 8}})
	if err != nil {
		t.Fatal(err)
	}
	t.Logf("\n%s", s)
	if len(s.Rows) != 4 {
		t.Fatalf("want 4 rows, got %d", len(s.Rows))
	}
	wide := s.Row(8, "uniform")
	if wide == nil {
		t.Fatal("missing 8-shard uniform row")
	}
	// The routing certificate: a single-shard transaction on an 8-shard
	// tier must issue Prepare and Decide to exactly 1 engine, not 8. A
	// handful of protocol-level resends under scheduler noise is tolerated;
	// a broadcast would put these at 8.0.
	if wide.PreparesPerReq > 1.5 {
		t.Errorf("8-shard uniform prepares/req = %.2f, want ~1 (participant set, not broadcast)", wide.PreparesPerReq)
	}
	if wide.DecidesPerReq > 1.5 {
		t.Errorf("8-shard uniform decides/req = %.2f, want ~1", wide.DecidesPerReq)
	}
	if raceEnabled {
		return // timing-shape assertions are meaningless under the race detector
	}
	narrow := s.Row(1, "uniform")
	if wide.Throughput < narrow.Throughput {
		t.Errorf("throughput must not fall as shards are added: 1 shard %.1f, 8 shards %.1f",
			narrow.Throughput, wide.Throughput)
	}
}

// TestConsensusBenchShape asserts the cohort-consensus certificates on a
// small run: window 0 reproduces today's per-write instance counts (two
// local consensus proposals per commit, exactly), and cohort batching pays
// strictly fewer consensus messages and instances per commit.
func TestConsensusBenchShape(t *testing.T) {
	rep, err := RunConsensus(ConsensusConfig{Quick: true, Requests: 200, InFlights: []int{16}})
	if err != nil {
		t.Fatal(err)
	}
	t.Logf("\n%s", rep)
	off, on := rep.Row(16, false), rep.Row(16, true)
	if off == nil || on == nil {
		t.Fatal("missing rows")
	}
	// Window 0 parity: one consensus instance per register write — the regA
	// claim and the regD decision — and nothing else in a failure-free run.
	if off.InstancesPerCommit < 1.99 || off.InstancesPerCommit > 2.1 {
		t.Errorf("window 0 ran %.2f instances/commit, want 2.00 (one per register write)", off.InstancesPerCommit)
	}
	if on.MsgsPerCommit >= off.MsgsPerCommit {
		t.Errorf("cohort batching did not cut consensus messages: %.2f vs %.2f", on.MsgsPerCommit, off.MsgsPerCommit)
	}
	if on.InstancesPerCommit >= off.InstancesPerCommit/2 {
		t.Errorf("cohort batching barely shared instances: %.2f vs %.2f", on.InstancesPerCommit, off.InstancesPerCommit)
	}
	if off.FastPathRate < 0.99 || on.FastPathRate < 0.99 {
		t.Errorf("failure-free runs must ride the round-1 fast path: off=%.2f on=%.2f", off.FastPathRate, on.FastPathRate)
	}
	if raceEnabled {
		return // timing-shape assertions are meaningless under the race detector
	}
	if on.Throughput < off.Throughput {
		t.Errorf("cohort batching lost throughput at depth 16: %.1f vs %.1f", on.Throughput, off.Throughput)
	}
}

func TestScalingRuns(t *testing.T) {
	s, err := RunScaling(0.01, 3)
	if err != nil {
		t.Fatal(err)
	}
	t.Logf("\n%s", s)
	if len(s.Rows) != 5 {
		t.Fatalf("want 5 deployment shapes, got %d", len(s.Rows))
	}
}

// kindOf maps a kind name back to its Kind (test helper).
func kindOf(name string) msg.Kind {
	for i := 1; i < 64; i++ {
		if msg.Kind(i).String() == name {
			return msg.Kind(i)
		}
	}
	return 0
}
