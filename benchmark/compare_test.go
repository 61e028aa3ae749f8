package main

import (
	"bytes"
	"math"
	"strings"
	"testing"
)

func TestQuartilesMatchPython(t *testing.T) {
	// Values from Python's statistics.quantiles(data, n=4).
	for _, tc := range []struct {
		data   []float64
		q1, q3 float64
	}{
		{[]float64{1, 2, 3, 4, 5, 6, 7, 8, 9, 10}, 2.75, 8.25},
		{[]float64{10, 1, 7, 3, 5}, 2, 8.5},
		{[]float64{4, 2}, 1.5, 4.5},
	} {
		q1, q3 := quartiles(append([]float64(nil), tc.data...))
		if math.Abs(q1-tc.q1) > 1e-12 || math.Abs(q3-tc.q3) > 1e-12 {
			t.Errorf("quartiles(%v) = %v, %v; want %v, %v", tc.data, q1, q3, tc.q1, tc.q3)
		}
	}
}

func TestVerdict(t *testing.T) {
	lower := metricDef{Name: "apply_s_p50", Better: "lower", Bound: bound(0.10)}
	higher := metricDef{Name: "throughput_per_s", Better: "higher", Bound: bound(0.10)}
	steady := []float64{100, 101, 99, 100, 100}
	for _, tc := range []struct {
		name         string
		base, change []float64
		def          metricDef
		want         string
	}{
		{"same", steady, []float64{100, 100.5, 99.5, 100, 101}, lower, verdictWithin},
		{"small change inside the bound", steady, []float64{105, 106, 104, 105, 105}, lower, verdictWithin},
		{"lower is better", steady, []float64{80, 81, 79, 80, 80}, lower, verdictBetter},
		{"lower regressed", steady, []float64{120, 121, 119, 120, 120}, lower, verdictWorse},
		{"higher regressed", steady, []float64{80, 81, 79, 80, 80}, higher, verdictWorse},
		{"higher improved", steady, []float64{120, 121, 119, 120, 120}, higher, verdictBetter},
		{"noisy base", []float64{60, 140, 100, 70, 130}, []float64{110, 100, 90, 105, 95}, lower, verdictUnresolved},
		{"noisy but disjoint", []float64{60, 140, 100, 70, 130}, []float64{10, 11, 12, 13, 14}, lower, verdictBetter},
	} {
		if got := verdict(tc.base, tc.change, tc.def); got != tc.want {
			t.Errorf("%s: verdict = %s, want %s", tc.name, got, tc.want)
		}
	}
}

func TestCompareRecordsExactMismatch(t *testing.T) {
	rec := func(seed int64, throughput, smis float64) runRecord {
		return runRecord{
			Workload: "batch", Seed: seed, Seconds: 15, Correct: true, Attempted: 1,
			Metrics: map[string]metricValue{"throughput_per_s": {Value: throughput, Unit: "1/s"}},
			Exact:   map[string]float64{"pipeline.smis": smis},
		}
	}
	base := []runRecord{rec(1, 100, 4), rec(1, 101, 4), rec(2, 99, 8)}
	var out bytes.Buffer
	if !compareRecords(&out, base, []runRecord{rec(1, 100, 4), rec(2, 100, 8)}) {
		t.Fatalf("agreeing sets reported a problem:\n%s", out.String())
	}
	out.Reset()
	if compareRecords(&out, base, []runRecord{rec(1, 100, 5)}) {
		t.Fatalf("exact mismatch not reported:\n%s", out.String())
	}
	if !strings.Contains(out.String(), "EXACT MISMATCH seed 1: pipeline.smis 4 vs 5") {
		t.Errorf("mismatch line missing:\n%s", out.String())
	}
}
