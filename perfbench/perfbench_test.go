package main

import (
	"bytes"
	"context"
	"encoding/json"
	"os/exec"
	"path/filepath"
	"strings"
	"testing"
)

// TestWorkloadsShort runs every workload briefly, untraced and traced, and
// checks that the output check passes and that the JSON line carries every
// named metric with a unit.
func TestWorkloadsShort(t *testing.T) {
	bin := t.TempDir()
	build := exec.Command("go", "build", "-o", bin+string(filepath.Separator), "etx/cmd/etxappserver", "etx/cmd/etxdbserver")
	if out, err := build.CombinedOutput(); err != nil {
		t.Fatalf("build servers: %v\n%s", err, out)
	}
	for _, w := range workloads {
		for _, traced := range []bool{false, true} {
			name := w.name
			if traced {
				name += "/traced"
			}
			t.Run(name, func(t *testing.T) {
				opts := options{seed: 7, seconds: 1, trace: traced, bin: bin, work: t.TempDir(), stealCPU: -1, stopInproc: true}
				r, err := run(context.Background(), w, opts)
				if err != nil {
					t.Fatalf("run: %v", err)
				}
				var buf bytes.Buffer
				r.print(&buf)
				lines := strings.Split(strings.TrimSpace(buf.String()), "\n")
				var out struct {
					Correct   bool `json:"correct"`
					Attempted int  `json:"attempted"`
					Metrics   map[string]struct {
						Value *float64 `json:"value"`
						Unit  string   `json:"unit"`
					} `json:"metrics"`
				}
				if err := json.Unmarshal([]byte(lines[len(lines)-1]), &out); err != nil {
					t.Fatalf("last line is not the result object: %v\n%s", err, buf.String())
				}
				if !out.Correct || out.Attempted < 1 {
					t.Errorf("correct=%v attempted=%d", out.Correct, out.Attempted)
				}
				want := e2eNames
				if traced {
					want = layerNames
				}
				if len(out.Metrics) != len(want) {
					t.Errorf("got %d metrics, want %d", len(out.Metrics), len(want))
				}
				for _, n := range want {
					m, ok := out.Metrics[n]
					if !ok || m.Value == nil || m.Unit == "" {
						t.Errorf("metric %s missing or without value and unit", n)
					}
				}
			})
		}
	}
}
