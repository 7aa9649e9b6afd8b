package main

import (
	"context"
	"encoding/json"
	"math"
	"os"
	"testing"
)

// benchmarkFile is the subset of ../BENCHMARK.json the tests read.
type benchmarkFile struct {
	Workloads []struct {
		Name string `json:"name"`
	} `json:"workloads"`
	EndToEnd []struct {
		Name string `json:"name"`
		Unit string `json:"unit"`
	} `json:"end_to_end"`
	PerLayer []struct {
		Name string `json:"name"`
		Unit string `json:"unit"`
	} `json:"per_layer"`
}

func loadBenchmarkFile(t *testing.T) benchmarkFile {
	t.Helper()
	data, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var bf benchmarkFile
	if err := json.Unmarshal(data, &bf); err != nil {
		t.Fatal(err)
	}
	return bf
}

// TestBenchmarkFileMatches keeps BENCHMARK.json and the metric tables in
// step: the same workloads, metric names and units, in the same order.
func TestBenchmarkFileMatches(t *testing.T) {
	bf := loadBenchmarkFile(t)
	if len(bf.Workloads) != len(workloads) {
		t.Fatalf("BENCHMARK.json lists %d workloads, the benchmark runs %d", len(bf.Workloads), len(workloads))
	}
	for i, w := range bf.Workloads {
		if w.Name != workloads[i].name {
			t.Errorf("workload %d: BENCHMARK.json %q, benchmark %q", i, w.Name, workloads[i].name)
		}
	}
	type named = []struct {
		Name string `json:"name"`
		Unit string `json:"unit"`
	}
	for _, set := range []struct {
		file named
		defs []metricDef
	}{{bf.EndToEnd, e2eMetrics}, {bf.PerLayer, layerMetrics}} {
		if len(set.file) != len(set.defs) {
			t.Errorf("BENCHMARK.json lists %d metrics where the benchmark has %d", len(set.file), len(set.defs))
			continue
		}
		for i, m := range set.file {
			if m.Name != set.defs[i].name || m.Unit != set.defs[i].unit {
				t.Errorf("metric %d: BENCHMARK.json %s [%s], benchmark %s [%s]",
					i, m.Name, m.Unit, set.defs[i].name, set.defs[i].unit)
			}
		}
	}
}

// TestWorkloadsTiny runs every workload at a tiny size, untraced and
// traced, and requires correct outputs, every metric finite, and — for
// the offline passes — layer self times that account for the pass wall
// time within 2%.
func TestWorkloadsTiny(t *testing.T) {
	for i := range workloads {
		wl := &workloads[i]
		for _, traced := range []bool{false, true} {
			name := wl.name + "/e2e"
			if traced {
				name = wl.name + "/traced"
			}
			t.Run(name, func(t *testing.T) {
				r := &run{seed: 1, seconds: 0.2, tiny: true}
				if traced {
					r.tr = newTracer()
				}
				res, err := execute(context.Background(), wl, r, t.TempDir())
				if err != nil {
					t.Fatal(err)
				}
				if !res.Correct || res.Failed != 0 {
					t.Fatalf("incorrect run: %d of %d operations failed; problems: %v", res.Failed, res.Attempted, r.problems)
				}
				for _, md := range metricSet(traced) {
					mv, ok := res.Metrics[md.name]
					if !ok || mv.Unit != md.unit || math.IsNaN(mv.Value) || math.IsInf(mv.Value, 0) {
						t.Errorf("metric %s = %+v, want a finite value in %s", md.name, mv, md.unit)
					}
				}
				if !traced {
					for _, md := range e2eMetrics {
						if res.Metrics[md.name].Value <= 0 {
							t.Errorf("end-to-end metric %s = %v, want > 0", md.name, res.Metrics[md.name].Value)
						}
					}
					return
				}
				pass := res.Metrics["bench.pass_s"].Value
				layers := res.Metrics["trace.next_s"].Value + res.Metrics["core.observe_s"].Value + res.Metrics["core.finish_s"].Value
				if layers > 0 && math.Abs(layers-pass) > 0.02*pass {
					t.Errorf("layers sum to %.6fs, pass took %.6fs: more than 2%% apart", layers, pass)
				}
			})
		}
	}
}

// TestSelfSeconds pins the self-time arithmetic the per-layer breakdown
// rests on: a span's self time excludes its children's durations.
func TestSelfSeconds(t *testing.T) {
	tr := newTracer()
	tr.spans = []span{
		{Trace: 1, ID: 1, Name: "bench.pass", Start: 0, End: 10e9},
		{Trace: 1, ID: 2, Parent: 1, Name: "trace.next", Start: 1e9, End: 3e9},
		{Trace: 1, ID: 3, Parent: 1, Name: "core.observe", Start: 3e9, End: 9e9},
		{Trace: 2, ID: 4, Name: "bench.pass", Start: 0, End: 5e9},
	}
	got := tr.selfSeconds(1)
	want := map[string]float64{"bench.pass": 2, "trace.next": 2, "core.observe": 6}
	for k, v := range want {
		if got[k] != v {
			t.Errorf("self[%s] = %v, want %v", k, got[k], v)
		}
	}
}
