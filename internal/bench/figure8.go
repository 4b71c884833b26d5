package bench

import (
	"context"
	"errors"
	"fmt"
	"strings"
	"time"

	"etx/internal/core"
	"etx/internal/id"
	"etx/internal/latcost"
	"etx/internal/metrics"
	"etx/internal/spin"
)

// Figure8Config parameterizes the reproduction of the paper's Figure 8
// table ("Comparing the latency of the protocols").
type Figure8Config struct {
	// Scale is the cost-model multiplier (1.0 = the paper's real-time
	// costs). Default 0.05.
	Scale float64
	// Requests per protocol column (after warm-up). Default 30, matching
	// "we executed multiple identical transactions".
	Requests int
	// Warmup requests excluded from the measurement. Default 3.
	Warmup int
	// AppServers is the AR replication degree. Default 3 (tolerates one
	// crash with a majority, the paper's analytic setting).
	AppServers int
}

func (c *Figure8Config) setDefaults() {
	if c.Scale <= 0 {
		c.Scale = 0.05
	}
	if c.Requests <= 0 {
		c.Requests = 30
	}
	if c.Warmup <= 0 {
		c.Warmup = 3
	}
	if c.AppServers <= 0 {
		c.AppServers = 3
	}
}

// Figure8Column is one protocol column of the table, in milliseconds of the
// paper's (unscaled) time base.
type Figure8Column struct {
	Protocol   string
	Start      float64
	End        float64
	Commit     float64
	Prepare    float64
	SQL        float64
	LogStart   float64
	LogOutcome float64
	Other      float64
	Total      float64
	TotalCI90  float64
	// Overhead is the cost of reliability relative to the baseline column,
	// in percent.
	Overhead float64
}

// Figure8 is the reproduced table: baseline, AR (the paper's protocol) and
// 2PC columns, exactly the rows of the paper's Figure 8.
type Figure8 struct {
	Scale    float64
	Requests int
	Baseline Figure8Column
	AR       Figure8Column
	TwoPC    Figure8Column
}

// PaperFigure8 returns the table as published (milliseconds), for
// side-by-side comparison in reports and EXPERIMENTS.md.
func PaperFigure8() Figure8 {
	return Figure8{
		Scale: 1.0,
		Baseline: Figure8Column{
			Protocol: ProtocolBaseline,
			Start:    3.4, End: 3.4, Commit: 18.6, Prepare: 0, SQL: 187.0,
			LogStart: 0, LogOutcome: 0, Other: 5.0, Total: 217.4, Overhead: 0,
		},
		AR: Figure8Column{
			Protocol: ProtocolAR,
			Start:    3.5, End: 3.5, Commit: 18.8, Prepare: 19.0, SQL: 193.2,
			LogStart: 4.5, LogOutcome: 4.7, Other: 5.1, Total: 252.3, Overhead: 16,
		},
		TwoPC: Figure8Column{
			Protocol: Protocol2PC,
			Start:    3.5, End: 3.4, Commit: 17.5, Prepare: 21.2, SQL: 190.6,
			LogStart: 12.5, LogOutcome: 12.7, Other: 5.1, Total: 266.5, Overhead: 23,
		},
	}
}

// RunFigure8 measures the three protocols on the calibrated cost model and
// assembles the table. All three deployments run side by side and the
// requests are interleaved one by one — round i issues one request to each
// protocol, rotating which goes first — so machine drift (CPU steal, a
// neighbour's burst) lands on every column alike instead of on whichever
// column happened to run during the bad stretch. Every row is a median, so
// a lone scheduler stall cannot move a column either.
func RunFigure8(cfg Figure8Config) (*Figure8, error) {
	cfg.setDefaults()
	model := latcost.Paper(cfg.Scale)

	var protos []*f8Protocol
	defer func() {
		for _, p := range protos {
			p.stop()
		}
	}()
	for _, build := range []func(latcost.Model, Figure8Config) (*f8Protocol, error){
		soloProtocol(ProtocolBaseline, newBaselineRig), arProtocol, soloProtocol(Protocol2PC, newTwoPCRig),
	} {
		p, err := build(model, cfg)
		if err != nil {
			return nil, err
		}
		protos = append(protos, p)
	}

	deadline := 300 * estimatedTotal(model)
	for i := 0; i < cfg.Warmup+cfg.Requests; i++ {
		if i == cfg.Warmup {
			for _, p := range protos {
				p.rec.Reset()
				p.totals = metrics.NewSample()
			}
		}
		for k := range protos {
			p := protos[(i+k)%len(protos)]
			if err := p.measure(model, deadline); err != nil {
				return nil, errf("%s request %d: %w", p.name, i, err)
			}
		}
	}
	for _, p := range protos {
		if p.check != nil {
			if err := p.check(); err != nil {
				return nil, err
			}
		}
	}

	baselineCol, arCol, twoPCCol := protos[0].column(model), protos[1].column(model), protos[2].column(model)
	overhead := func(c *Figure8Column) {
		if baselineCol.Total > 0 {
			c.Overhead = (c.Total - baselineCol.Total) / baselineCol.Total * 100
		}
	}
	overhead(&arCol)
	overhead(&twoPCCol)

	return &Figure8{
		Scale:    cfg.Scale,
		Requests: cfg.Requests,
		Baseline: baselineCol,
		AR:       arCol,
		TwoPC:    twoPCCol,
	}, nil
}

// f8Protocol is one column under measurement: a running deployment, the
// recorder its spans feed, and the client-observed request totals.
type f8Protocol struct {
	name   string
	rec    *latcost.Recorder
	totals *metrics.Sample
	call   func(ctx context.Context) error
	check  func() error // post-run correctness check, or nil
	stop   func()
}

// soloProtocol builds a single-server protocol (baseline or 2PC).
func soloProtocol(name string, build func(latcost.Model, *latcost.Recorder) (*soloRig, error)) func(latcost.Model, Figure8Config) (*f8Protocol, error) {
	return func(model latcost.Model, _ Figure8Config) (*f8Protocol, error) {
		rec := latcost.NewRecorder()
		rig, err := build(model, rec)
		if err != nil {
			return nil, errf("%s rig: %w", name, err)
		}
		return &f8Protocol{
			name: name, rec: rec, totals: metrics.NewSample(), stop: rig.stop,
			call: func(ctx context.Context) error {
				dec, err := rig.client.Call(ctx, benchRequest())
				if err != nil {
					return err
				}
				if !dec.Committed() {
					return errors.New("aborted")
				}
				return nil
			},
		}, nil
	}
}

// arProtocol builds the replicated protocol as a full cluster.
func arProtocol(model latcost.Model, cfg Figure8Config) (*f8Protocol, error) {
	rec := latcost.NewRecorder()
	c, err := arDeployment(model, cfg.AppServers, 1, rec, 1)
	if err != nil {
		return nil, errf("AR rig: %w", err)
	}
	return &f8Protocol{
		name: ProtocolAR, rec: rec, totals: metrics.NewSample(), stop: c.Stop,
		call: func(ctx context.Context) error {
			res, err := c.Client(1).Issue(ctx, benchRequest())
			if err != nil {
				return err
			}
			if len(res) == 0 {
				return errors.New("empty result")
			}
			return nil
		},
		check: func() error {
			if rep := c.CheckProperties(); !rep.Ok() {
				return errf("AR oracle violations: %s", rep)
			}
			return nil
		},
	}, nil
}

// measure issues one request the way the paper's client does: marshal,
// call, unmarshal, all inside the client-observed total.
func (p *f8Protocol) measure(model latcost.Model, deadline time.Duration) error {
	ctx, cancel := context.WithTimeout(context.Background(), deadline)
	defer cancel()
	t0 := time.Now()
	spin.Sleep(model.ClientStart)
	if err := p.call(ctx); err != nil {
		return err
	}
	spin.Sleep(model.ClientEnd)
	p.totals.AddDuration(time.Since(t0))
	p.rec.Observe(zeroRID(), core.SpanStart, model.ClientStart)
	p.rec.Observe(zeroRID(), core.SpanEnd, model.ClientEnd)
	return nil
}

func zeroRID() id.ResultID { return id.ResultID{} }

// column converts scaled measurements back to the paper's time base and
// derives the "other" row as the unaccounted remainder, exactly like the
// paper ("the amount of time which is unaccounted for after allocating the
// response time to the listed components"). Rows are medians and the CI is
// the median's distribution-free 90% interval.
func (p *f8Protocol) column(model latcost.Model) Figure8Column {
	unscale := 1.0 / model.Scale
	row := func(s core.Span) float64 { return p.rec.Median(s) * unscale }
	col := Figure8Column{
		Protocol:   p.name,
		Start:      row(core.SpanStart),
		End:        row(core.SpanEnd),
		Commit:     row(core.SpanCommit),
		Prepare:    row(core.SpanPrepare),
		SQL:        row(core.SpanSQL),
		LogStart:   row(core.SpanLogStart),
		LogOutcome: row(core.SpanLogOutcome),
		Total:      p.totals.Percentile(50) * unscale,
		TotalCI90:  p.totals.MedianCI90() * unscale,
	}
	accounted := col.Start + col.End + col.Commit + col.Prepare + col.SQL + col.LogStart + col.LogOutcome
	col.Other = col.Total - accounted
	return col
}

// String renders the table in the paper's layout.
func (f *Figure8) String() string {
	var b strings.Builder
	fmt.Fprintf(&b, "Figure 8 — latency of the protocols (milliseconds, paper time base; scale %.3f, %d requests/protocol)\n",
		f.Scale, f.Requests)
	fmt.Fprintf(&b, "%-20s %10s %10s %10s\n", "protocol", "baseline", "AR", "2PC")
	row := func(label string, sel func(Figure8Column) float64) {
		fmt.Fprintf(&b, "%-20s %10.1f %10.1f %10.1f\n",
			label, sel(f.Baseline), sel(f.AR), sel(f.TwoPC))
	}
	row("start", func(c Figure8Column) float64 { return c.Start })
	row("end", func(c Figure8Column) float64 { return c.End })
	row("commit", func(c Figure8Column) float64 { return c.Commit })
	row("prepare", func(c Figure8Column) float64 { return c.Prepare })
	row("SQL", func(c Figure8Column) float64 { return c.SQL })
	row("log-start", func(c Figure8Column) float64 { return c.LogStart })
	row("log-outcome", func(c Figure8Column) float64 { return c.LogOutcome })
	row("other", func(c Figure8Column) float64 { return c.Other })
	row("total", func(c Figure8Column) float64 { return c.Total })
	fmt.Fprintf(&b, "%-20s %9.0f%% %9.1f%% %9.1f%%\n", "cost of reliability",
		f.Baseline.Overhead, f.AR.Overhead, f.TwoPC.Overhead)
	fmt.Fprintf(&b, "(rows are medians; 90%% CI of the median totals: baseline ±%.1f, AR ±%.1f, 2PC ±%.1f)\n",
		f.Baseline.TotalCI90, f.AR.TotalCI90, f.TwoPC.TotalCI90)
	return b.String()
}
