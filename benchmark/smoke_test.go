package main

import (
	"context"
	"encoding/json"
	"os"
	"reflect"
	"slices"
	"testing"
)

// benchmarkFile mirrors BENCHMARK.json.
type benchmarkFile struct {
	Command    []string `json:"command"`
	Paths      []string `json:"paths"`
	RunSeconds int      `json:"run_seconds"`
	Workloads  []struct {
		Name string `json:"name"`
		Why  string `json:"why"`
	} `json:"workloads"`
	EndToEnd []metricDef `json:"end_to_end"`
	PerLayer []metricDef `json:"per_layer"`
}

func loadBenchmarkFile(t *testing.T) benchmarkFile {
	t.Helper()
	raw, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var bf benchmarkFile
	if err := json.Unmarshal(raw, &bf); err != nil {
		t.Fatal(err)
	}
	return bf
}

// TestBenchmarkFileMatchesCatalog holds BENCHMARK.json and the metric
// catalogue the command emits from in agreement.
func TestBenchmarkFileMatchesCatalog(t *testing.T) {
	bf := loadBenchmarkFile(t)
	var names []string
	for _, w := range bf.Workloads {
		names = append(names, w.Name)
		if def, ok := lookupWorkload(w.Name); !ok || def.why != w.Why {
			t.Errorf("workload %s: declared why %q, command has %q", w.Name, w.Why, def.why)
		}
	}
	if len(names) != len(workloads) {
		t.Errorf("BENCHMARK.json declares workloads %v, the command runs %d", names, len(workloads))
	}
	if !reflect.DeepEqual(bf.EndToEnd, endToEnd) {
		t.Errorf("end_to_end differs from the catalogue:\nfile: %+v\ncode: %+v", bf.EndToEnd, endToEnd)
	}
	if !reflect.DeepEqual(bf.PerLayer, perLayer()) {
		t.Errorf("per_layer differs from the catalogue:\nfile: %+v\ncode: %+v", bf.PerLayer, perLayer())
	}
}

// TestWorkloadsSmoke runs every workload at test size: twice untraced
// with one seed, which must agree on every exact metric, and once
// traced. Each run must pass its checks with no failed operation and
// emit exactly the metrics BENCHMARK.json declares for its mode.
func TestWorkloadsSmoke(t *testing.T) {
	bf := loadBenchmarkFile(t)
	ctx := context.Background()
	p := params{seed: 7, seconds: 1, tiny: true}
	for _, w := range workloads {
		t.Run(w.name, func(t *testing.T) {
			var first *runRecord
			for i, traced := range []bool{false, false, true} {
				rec, err := runWorkload(ctx, w, p, traced, t.TempDir())
				if err != nil {
					t.Fatalf("run %d: %v", i, err)
				}
				if !rec.Correct || rec.Failed != 0 || rec.Attempted == 0 {
					t.Fatalf("run %d: correct=%t attempted=%d failed=%d: %s", i, rec.Correct, rec.Attempted, rec.Failed, rec.Problem)
				}
				declared := bf.EndToEnd
				if traced {
					declared = bf.PerLayer
				}
				requireMetrics(t, rec, declared)
				if traced {
					continue
				}
				if first == nil {
					first = rec
					continue
				}
				if mism := exactMismatches([]runRecord{*first, *rec}); len(mism) > 0 {
					t.Errorf("exact metrics differ between runs with one seed: %v", mism)
				}
			}
		})
	}
}

func requireMetrics(t *testing.T, rec *runRecord, declared []metricDef) {
	t.Helper()
	var got, want []string
	for k := range rec.Metrics {
		got = append(got, k)
	}
	for _, d := range declared {
		want = append(want, d.Name)
		if m, ok := rec.Metrics[d.Name]; ok && m.Unit != d.Unit {
			t.Errorf("%s: unit %q, declared %q", d.Name, m.Unit, d.Unit)
		}
	}
	slices.Sort(got)
	slices.Sort(want)
	if !slices.Equal(got, want) {
		t.Errorf("trace=%t emitted metrics %v, declared %v", rec.Trace, got, want)
	}
}
