package main

import (
	"bufio"
	"encoding/json"
	"fmt"
	"io"
	"math"
	"os"
	"slices"
	"strings"
)

// Verdicts of compare mode.
const (
	verdictBetter     = "better"
	verdictWithin     = "within"     // no worse than the bound
	verdictWorse      = "worse"      // worse than the bound
	verdictUnresolved = "unresolved" // spread wider than the bound
)

// verdict judges the change's runs against the base's for one metric.
// A difference counts only if the medians differ by more than the
// base's interquartile range. Where that range is itself wider than the
// bound the result is unresolved, unless every change run reads better
// (or worse) than every base run.
func verdict(base, change []float64, def metricDef) string {
	b, c := append([]float64(nil), base...), append([]float64(nil), change...)
	mb, mc := median(b), median(c)
	q1, q3 := quartiles(b)
	sign := 1.0 // positive worse
	if def.Better == "higher" {
		sign = -1
	}
	worse := sign * (mc - mb)
	bnd := 0.0
	if def.Bound != nil {
		bnd = *def.Bound
	}
	// median left b and c sorted; compare their extremes.
	allBetter := sign*(c[len(c)-1]-b[0]) < 0 && sign*(c[0]-b[len(b)-1]) < 0
	allWorse := sign*(c[0]-b[len(b)-1]) > 0 && sign*(c[len(c)-1]-b[0]) > 0
	resolved := math.Abs(mc-mb) > q3-q1
	switch {
	case (q3-q1) > bnd*math.Abs(mb) && !allBetter && !allWorse:
		return verdictUnresolved
	case worse < 0 && (resolved || allBetter):
		return verdictBetter
	case worse > bnd*math.Abs(mb) && (resolved || allWorse):
		return verdictWorse
	default:
		return verdictWithin
	}
}

func readRecords(path string) ([]runRecord, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	var recs []runRecord
	sc := bufio.NewScanner(f)
	sc.Buffer(make([]byte, 1<<20), 1<<24)
	for n := 1; sc.Scan(); n++ {
		line := strings.TrimSpace(sc.Text())
		if line == "" {
			continue
		}
		var r runRecord
		if err := json.Unmarshal([]byte(line), &r); err != nil {
			return nil, fmt.Errorf("%s:%d: %w", path, n, err)
		}
		if r.Workload == "" {
			return nil, fmt.Errorf("%s:%d: not a benchmark record", path, n)
		}
		recs = append(recs, r)
	}
	if err := sc.Err(); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	return recs, nil
}

func runCompare(basePath, changePath string, stdout, stderr io.Writer) int {
	base, err := readRecords(basePath)
	if err == nil {
		var change []runRecord
		if change, err = readRecords(changePath); err == nil {
			ok := compareRecords(stdout, base, change)
			if !ok {
				fmt.Fprintln(stderr, "benchmark: compare: regression or exact-metric mismatch")
				return 1
			}
			return 0
		}
	}
	fmt.Fprintf(stderr, "benchmark: compare: %v\n", err)
	return 2
}

// compareRecords prints, per workload and metric, each side's run
// count, median and quartiles, and for end-to-end metrics a verdict
// against the bound. It returns false on any "worse" verdict, on any
// failed run, or when an exact metric differs between two runs of one
// workload, seed and length.
func compareRecords(w io.Writer, base, change []runRecord) bool {
	ok := true
	names := map[string]bool{}
	for _, r := range append(append([]runRecord(nil), base...), change...) {
		names[r.Workload] = true
	}
	var order []string
	for _, wd := range workloads {
		if names[wd.name] {
			order = append(order, wd.name)
		}
	}
	for name := range names {
		if !slices.Contains(order, name) {
			order = append(order, name)
		}
	}
	for _, name := range order {
		bs, cs := filterRecords(base, name), filterRecords(change, name)
		fmt.Fprintf(w, "== %s: base %d runs, change %d runs\n", name, len(bs), len(cs))
		for _, side := range []struct {
			label string
			recs  []runRecord
		}{{"base", bs}, {"change", cs}} {
			for _, env := range envLines(side.recs) {
				fmt.Fprintf(w, "   %-6s %s\n", side.label, env)
			}
			for _, r := range side.recs {
				if !r.Correct || r.Failed > 0 {
					fmt.Fprintf(w, "   %-6s seed %d: correct=%t failed=%d %s\n", side.label, r.Seed, r.Correct, r.Failed, r.Problem)
					ok = false
				}
			}
		}
		fmt.Fprintf(w, "   %-32s %3s %12s %12s %12s | %3s %12s %12s %12s  %s\n",
			"metric", "n", "base p50", "q1", "q3", "n", "change p50", "q1", "q3", "verdict")
		for _, def := range append(append([]metricDef(nil), endToEnd...), perLayer()...) {
			bv, cv := metricValues(bs, def.Name), metricValues(cs, def.Name)
			if len(bv) == 0 && len(cv) == 0 {
				continue
			}
			v := "-"
			if def.Bound != nil && len(bv) > 0 && len(cv) > 0 {
				v = verdict(bv, cv, def)
				if v == verdictWorse {
					ok = false
				}
			}
			fmt.Fprintf(w, "   %-32s %s | %s  %s\n", def.Name, summary(bv), summary(cv), v)
		}
		if mism := exactMismatches(append(append([]runRecord(nil), bs...), cs...)); len(mism) > 0 {
			ok = false
			for _, m := range mism {
				fmt.Fprintf(w, "   EXACT MISMATCH %s\n", m)
			}
		} else {
			fmt.Fprintf(w, "   exact metrics identical across runs of each seed\n")
		}
	}
	return ok
}

func filterRecords(recs []runRecord, workload string) []runRecord {
	var out []runRecord
	for _, r := range recs {
		if r.Workload == workload {
			out = append(out, r)
		}
	}
	return out
}

func envLines(recs []runRecord) []string {
	var lines []string
	for _, r := range recs {
		l := fmt.Sprintf("go=%s gomaxprocs=%d cpu=%q", r.Env.Go, r.Env.GOMAXPROCS, r.Env.CPU)
		if !slices.Contains(lines, l) {
			lines = append(lines, l)
		}
	}
	return lines
}

func metricValues(recs []runRecord, name string) []float64 {
	var vs []float64
	for _, r := range recs {
		if m, ok := r.Metrics[name]; ok {
			vs = append(vs, m.Value)
		}
	}
	return vs
}

func summary(vs []float64) string {
	if len(vs) == 0 {
		return fmt.Sprintf("%3d %12s %12s %12s", 0, "-", "-", "-")
	}
	s := append([]float64(nil), vs...)
	q1, q3 := quartiles(s)
	return fmt.Sprintf("%3d %12.6g %12.6g %12.6g", len(vs), median(s), q1, q3)
}

// exactMismatches lists every exact metric that differs between runs
// of the same workload, seed, length and mode.
func exactMismatches(recs []runRecord) []string {
	type key struct {
		seed    int64
		seconds float64
		trace   bool
	}
	first := map[key]runRecord{}
	var out []string
	for _, r := range recs {
		k := key{r.Seed, r.Seconds, r.Trace}
		f, seen := first[k]
		if !seen {
			first[k] = r
			continue
		}
		names := make([]string, 0, len(f.Exact))
		for n := range f.Exact {
			names = append(names, n)
		}
		for n := range r.Exact {
			if _, ok := f.Exact[n]; !ok {
				names = append(names, n)
			}
		}
		slices.Sort(names)
		for _, n := range names {
			a, aok := f.Exact[n]
			b, bok := r.Exact[n]
			if a != b || aok != bok {
				out = append(out, fmt.Sprintf("seed %d: %s %v vs %v", r.Seed, n, a, b))
			}
		}
	}
	return out
}
