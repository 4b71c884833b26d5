// Command etxbench regenerates the tables and figures of the paper's
// evaluation (Frølund & Guerraoui, "Implementing e-Transactions with
// Asynchronous Replication", DSN 2000) on the simulated substrate, plus the
// extension experiments indexed in the README's "Reproducing the paper's
// evaluation" section.
//
// Usage:
//
//	etxbench -exp all                # every experiment
//	etxbench -exp f8 -scale 0.05     # the Figure-8 latency table
//	etxbench -exp f7                 # Figure-7 communication steps
//	etxbench -exp f1                 # Figure-1 protocol executions
//	etxbench -exp failover           # response time under primary crashes
//	etxbench -exp scaling            # latency vs deployment size
//	etxbench -exp suspicion          # false-suspicion robustness (PB vs AR)
//	etxbench -exp woregister         # wo-register microbenchmark
//	etxbench -exp gc                 # register garbage-collection ablation
//	etxbench -exp pipeline           # pipelined-client throughput (1xK vs Kx1)
//	etxbench -exp shards             # throughput vs 1/2/4/8 key-sharded databases
//	etxbench -exp batch              # group commit: fsyncs/commit and throughput on vs off
//	etxbench -exp consensus          # cohort consensus: msgs and instances/commit on vs off
//	etxbench -exp memory             # batch-log memory: slot map + heap, GC on vs off
//	etxbench -exp queue              # queue-oriented deterministic execution vs strict 2PL
//	etxbench -exp wire               # vectored TCP transport + adaptive batching windows
//
// -scale multiplies the paper's calibrated component costs: 1.0 reproduces
// the paper's real-time latencies (a slow run), 0.05 keeps the ratios and
// finishes in seconds. -quick shrinks the extension experiments for CI
// smoke runs, -net lan|wan swaps the memnet substrate of the wire, queue
// and consensus sweeps for a latcost latency profile, -json writes every
// produced report as machine-readable
// JSON (keyed by experiment name) so perf trajectories can accumulate as
// build artifacts, and -memprofile writes a post-run heap profile for
// leak hunts.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"runtime"
	"runtime/pprof"

	"etx/internal/bench"
)

func main() {
	if err := run(); err != nil {
		fmt.Fprintln(os.Stderr, "etxbench:", err)
		os.Exit(1)
	}
}

func run() error {
	exp := flag.String("exp", "all", "experiment: all|f8|f7|f1|failover|scaling|suspicion|woregister|patience|gc|pipeline|shards|batch|consensus|memory|queue|wire")
	scale := flag.Float64("scale", 0.05, "cost-model scale (1.0 = the paper's real-time costs)")
	requests := flag.Int("requests", 30, "requests per measured column")
	runs := flag.Int("runs", 5, "runs per failure scenario")
	inflight := flag.Int("inflight", 16, "pipelining depth K for -exp pipeline")
	quick := flag.Bool("quick", false, "CI smoke mode: smaller scale and request counts for the extension experiments")
	netProfile := flag.String("net", "", "latcost network profile for the wire/queue/consensus sweeps: lan|wan (default: each sweep's own substrate)")
	jsonPath := flag.String("json", "", "write the reports as JSON to this file (keyed by experiment name)")
	memProfile := flag.String("memprofile", "", "write a heap profile to this file after the experiments finish")
	flag.Parse()

	type experiment struct {
		name string
		run  func() (fmt.Stringer, error)
	}
	experiments := []experiment{
		{"f8", func() (fmt.Stringer, error) {
			out, err := bench.RunFigure8(bench.Figure8Config{Scale: *scale, Requests: *requests})
			if err != nil {
				return nil, err
			}
			paper := bench.PaperFigure8()
			fmt.Println("--- paper's published Figure 8 ---")
			fmt.Print(paper.String())
			fmt.Println()
			return out, nil
		}},
		{"f7", func() (fmt.Stringer, error) { return bench.RunFigure7(*scale) }},
		{"f1", func() (fmt.Stringer, error) { return bench.RunFigure1(*scale) }},
		{"failover", func() (fmt.Stringer, error) {
			cfg := bench.FailoverConfig{Scale: *scale, Quick: *quick}
			// -runs defaults to a value tuned for the full run; in quick
			// mode honour it only when the user set it explicitly.
			if !*quick {
				cfg.Runs = *runs
			}
			flag.Visit(func(f *flag.Flag) {
				if f.Name == "runs" {
					cfg.Runs = *runs
				}
			})
			return bench.RunFailover(cfg)
		}},
		{"scaling", func() (fmt.Stringer, error) { return bench.RunScaling(*scale, *requests) }},
		{"suspicion", func() (fmt.Stringer, error) { return bench.RunSuspicion(*scale, *runs) }},
		{"woregister", func() (fmt.Stringer, error) { return bench.RunWORegister(*scale, 3, *requests) }},
		{"patience", func() (fmt.Stringer, error) { return bench.RunPatience(*scale, *runs) }},
		{"gc", func() (fmt.Stringer, error) { return bench.RunGCAblation(5 * *runs * *runs) }},
		{"pipeline", func() (fmt.Stringer, error) { return bench.RunPipeline(*scale, *requests, *inflight) }},
		{"shards", func() (fmt.Stringer, error) {
			cfg := bench.ShardsConfig{Quick: *quick}
			if !*quick {
				cfg.Scale = *scale
			}
			// -scale/-requests/-inflight default to values tuned for the
			// other experiments; in quick mode honour them only when the
			// user set them explicitly.
			flag.Visit(func(f *flag.Flag) {
				switch f.Name {
				case "scale":
					cfg.Scale = *scale
				case "requests":
					cfg.Requests = *requests
				case "inflight":
					cfg.InFlight = *inflight
				}
			})
			return bench.RunShards(cfg)
		}},
		{"batch", func() (fmt.Stringer, error) {
			cfg := bench.BatchConfig{Quick: *quick}
			if !*quick {
				cfg.Scale = *scale
			}
			flag.Visit(func(f *flag.Flag) {
				switch f.Name {
				case "scale":
					cfg.Scale = *scale
				case "requests":
					cfg.Requests = *requests
				case "inflight":
					cfg.InFlights = []int{1}
					if *inflight != 1 {
						cfg.InFlights = append(cfg.InFlights, *inflight)
					}
				}
			})
			return bench.RunBatch(cfg)
		}},
		{"memory", func() (fmt.Stringer, error) {
			// The memory sweep is CPU-bound like the consensus one; -scale
			// does not apply. -requests overrides the commit volume.
			cfg := bench.MemoryConfig{Quick: *quick}
			flag.Visit(func(f *flag.Flag) {
				switch f.Name {
				case "requests":
					cfg.Commits = *requests
				case "inflight":
					cfg.InFlight = *inflight
				}
			})
			return bench.RunMemory(cfg)
		}},
		{"queue", func() (fmt.Stringer, error) {
			// The queue sweep runs on its own fixed LAN-like substrate, so
			// -scale does not apply to it.
			cfg := bench.QueueConfig{Quick: *quick, Net: *netProfile}
			flag.Visit(func(f *flag.Flag) {
				switch f.Name {
				case "requests":
					cfg.Requests = *requests
				case "inflight":
					cfg.InFlights = []int{1}
					if *inflight != 1 {
						cfg.InFlights = append(cfg.InFlights, *inflight)
					}
				}
			})
			return bench.RunQueue(cfg)
		}},
		{"consensus", func() (fmt.Stringer, error) {
			// The consensus sweep is CPU-bound by design (zero-cost network
			// and log device), so -scale does not apply to it.
			cfg := bench.ConsensusConfig{Quick: *quick, Net: *netProfile}
			flag.Visit(func(f *flag.Flag) {
				switch f.Name {
				case "requests":
					cfg.Requests = *requests
				case "inflight":
					cfg.InFlights = []int{1}
					if *inflight != 1 {
						cfg.InFlights = append(cfg.InFlights, *inflight)
					}
				}
			})
			return bench.RunConsensus(cfg)
		}},
		{"wire", func() (fmt.Stringer, error) {
			// The wire sweep runs on real TCP loopback (transport section)
			// and its own memnet substrate (windows section); -scale does
			// not apply to it.
			cfg := bench.WireConfig{Quick: *quick, Net: *netProfile}
			flag.Visit(func(f *flag.Flag) {
				switch f.Name {
				case "requests":
					cfg.Requests = *requests
				case "inflight":
					cfg.InFlights = []int{1}
					if *inflight != 1 {
						cfg.InFlights = append(cfg.InFlights, *inflight)
					}
				}
			})
			return bench.RunWire(cfg)
		}},
	}

	matched := false
	reports := make(map[string]fmt.Stringer)
	for _, e := range experiments {
		if *exp != "all" && *exp != e.name {
			continue
		}
		matched = true
		fmt.Printf("=== experiment %s ===\n", e.name)
		out, err := e.run()
		if err != nil {
			return fmt.Errorf("%s: %w", e.name, err)
		}
		fmt.Println(out.String())
		reports[e.name] = out
	}
	if !matched {
		return fmt.Errorf("unknown experiment %q", *exp)
	}
	if *jsonPath != "" {
		blob, err := json.MarshalIndent(reports, "", "  ")
		if err != nil {
			return fmt.Errorf("encode reports: %w", err)
		}
		blob = append(blob, '\n')
		if err := os.WriteFile(*jsonPath, blob, 0o644); err != nil {
			return fmt.Errorf("write %s: %w", *jsonPath, err)
		}
		fmt.Printf("wrote %s\n", *jsonPath)
	}
	if *memProfile != "" {
		f, err := os.Create(*memProfile)
		if err != nil {
			return fmt.Errorf("create %s: %w", *memProfile, err)
		}
		defer f.Close()
		runtime.GC() // profile live objects, not garbage
		if err := pprof.WriteHeapProfile(f); err != nil {
			return fmt.Errorf("write heap profile: %w", err)
		}
		fmt.Printf("wrote %s\n", *memProfile)
	}
	return nil
}
