// Command benchmark is the repository's benchmark of record. It drives
// the KShot simulation through three workloads — rollout, batch and
// under_load — using only the internal packages' public APIs, checks
// that every output is correct, and prints every metric by name with
// its unit. The last line of standard output is one JSON object:
//
//	{"correct": true, "attempted": N, "failed": 0, "metrics": {"name": {"value": v, "unit": "u"}, ...}}
//
// holding the end-to-end metrics, or with -trace 1 the per-layer ones.
// From the repository root:
//
//	bash benchmark/run.sh -workload batch -seed 1 -seconds 20 -trace 0
//
// or from this directory, `go run . -workload batch`. A traced run also
// writes spans.json, cpu.pprof and metrics.json to -trace-dir. With
// -out each run appends a full record to a JSONL file, and
//
//	go run . -compare base.jsonl change.jsonl
//
// compares two sets of such records. See README.md.
package main

import (
	"bytes"
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"runtime"
	"runtime/pprof"
	"slices"
	"time"
)

func main() {
	os.Exit(run(context.Background(), os.Args[1:], os.Stdout, os.Stderr))
}

func run(ctx context.Context, args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("benchmark", flag.ContinueOnError)
	fs.SetOutput(stderr)
	name := fs.String("workload", "", "workload to run: rollout, batch or under_load")
	seed := fs.Int64("seed", 1, "seed choosing the CVEs, their order and the orchestrator seed")
	seconds := fs.Float64("seconds", 20, "nominal length of the timed phase; fixes the amount of work")
	trace := fs.Int("trace", 0, "1 adds a traced phase and reports per-layer metrics instead of end-to-end ones")
	traceDir := fs.String("trace-dir", "", "directory for spans.json, cpu.pprof and metrics.json (default .bench_build/trace/<workload>)")
	out := fs.String("out", "", "append this run's full record to a JSONL file")
	compare := fs.Bool("compare", false, "compare two JSONL record files: -compare base.jsonl change.jsonl")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	if *compare {
		if fs.NArg() != 2 {
			fmt.Fprintln(stderr, "benchmark: -compare takes two JSONL files")
			return 2
		}
		return runCompare(fs.Arg(0), fs.Arg(1), stdout, stderr)
	}
	w, ok := lookupWorkload(*name)
	switch {
	case !ok:
		fmt.Fprintf(stderr, "benchmark: unknown workload %q (want rollout, batch or under_load)\n", *name)
		return 2
	case *trace != 0 && *trace != 1:
		fmt.Fprintf(stderr, "benchmark: -trace must be 0 or 1, got %d\n", *trace)
		return 2
	case *seconds <= 0:
		fmt.Fprintf(stderr, "benchmark: -seconds must be positive, got %v\n", *seconds)
		return 2
	}
	dir := *traceDir
	if dir == "" {
		dir = filepath.Join(".bench_build", "trace", w.name)
	}

	rec, err := runWorkload(ctx, w, params{seed: *seed, seconds: *seconds}, *trace == 1, dir)
	if err != nil {
		fmt.Fprintf(stderr, "benchmark: %s: %v\n", w.name, err)
		return 1
	}
	if *out != "" {
		if err := appendRecord(*out, rec); err != nil {
			fmt.Fprintf(stderr, "benchmark: %v\n", err)
			return 1
		}
	}
	if err := printRecord(stdout, rec); err != nil {
		fmt.Fprintf(stderr, "benchmark: %v\n", err)
		return 1
	}
	if !rec.Correct {
		fmt.Fprintf(stderr, "benchmark: %s: check failed: %s\n", w.name, rec.Problem)
		return 1
	}
	return 0
}

// setupRuns is how many times a run sets its workload up; setup_s is
// the median.
const setupRuns = 5

type metricValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

type envInfo struct {
	Go         string `json:"go"`
	GOMAXPROCS int    `json:"gomaxprocs"`
	CPU        string `json:"cpu"`
}

func currentEnv() envInfo {
	return envInfo{Go: runtime.Version(), GOMAXPROCS: runtime.GOMAXPROCS(0), CPU: cpuModel()}
}

// runRecord is everything one run measured.
type runRecord struct {
	Workload  string                 `json:"workload"`
	Seed      int64                  `json:"seed"`
	Seconds   float64                `json:"seconds"`
	Trace     bool                   `json:"trace"`
	Env       envInfo                `json:"env"`
	Correct   bool                   `json:"correct"`
	Problem   string                 `json:"problem,omitempty"`
	Attempted int                    `json:"attempted"`
	Failed    int                    `json:"failed"`
	Metrics   map[string]metricValue `json:"metrics"` // the declared metrics of this mode
	Exact     map[string]float64     `json:"exact"`   // counts and virtual times that repeat for a seed
	// Other holds the measured metrics this mode does not declare:
	// end-to-end figures of a traced run, harness figures of an
	// untraced one.
	Other map[string]metricValue `json:"other,omitempty"`
}

// timedPhase is a phase with the wall time, CPU time and allocation
// around it.
type timedPhase struct {
	*phaseResult
	wall  time.Duration
	cpu   time.Duration
	alloc uint64 // heap bytes allocated
}

func timePhase(ctx context.Context, r runner, tr *tracer) (*timedPhase, error) {
	runtime.GC()
	var m0, m1 runtime.MemStats
	runtime.ReadMemStats(&m0)
	start, cpu0 := time.Now(), processCPU()
	ph, err := r.measure(ctx, tr)
	wall, cpu := time.Since(start), processCPU()-cpu0
	runtime.ReadMemStats(&m1)
	if err != nil {
		return nil, err
	}
	return &timedPhase{phaseResult: ph, wall: wall, cpu: cpu, alloc: m1.TotalAlloc - m0.TotalAlloc}, nil
}

func (ph *timedPhase) throughput() float64 { return median(append([]float64(nil), ph.rates...)) }

// runWorkload sets w up setupRuns times, keeps the last set-up, runs
// the timed phase (an untraced and then a traced one with trace on),
// and checks the outputs.
func runWorkload(ctx context.Context, w workloadDef, p params, traced bool, traceDir string) (*runRecord, error) {
	setups := setupRuns
	if p.tiny {
		setups = 1
	}
	var r runner
	var setupTimes []float64
	for i := 0; i < setups; i++ {
		if r != nil {
			r.close()
		}
		start := time.Now()
		var err error
		if r, err = w.setup(ctx, p); err != nil {
			return nil, fmt.Errorf("setup: %w", err)
		}
		setupTimes = append(setupTimes, time.Since(start).Seconds())
	}
	defer r.close()

	phases := []*timedPhase{}
	var tr *tracer
	var prof bytes.Buffer
	if traced {
		base, err := timePhase(ctx, r, nil)
		if err != nil {
			return nil, err
		}
		phases = append(phases, base)
		if err := os.MkdirAll(traceDir, 0o755); err != nil {
			return nil, err
		}
		tr = newTracer()
		if err := pprof.StartCPUProfile(&prof); err != nil {
			return nil, err
		}
	}
	ph, err := timePhase(ctx, r, tr)
	if traced {
		pprof.StopCPUProfile()
	}
	if err != nil {
		return nil, err
	}
	phases = append(phases, ph)

	rec := &runRecord{
		Workload: w.name, Seed: p.seed, Seconds: p.seconds, Trace: traced, Env: currentEnv(),
		Correct: true, Metrics: map[string]metricValue{}, Other: map[string]metricValue{},
	}
	if err := r.check(ctx); err != nil {
		rec.Correct, rec.Problem = false, err.Error()
	}
	for _, ph := range phases {
		rec.Attempted += ph.attempted
		rec.Failed += ph.failed
	}
	if rec.Failed > 0 && rec.Correct {
		rec.Correct, rec.Problem = false, fmt.Sprintf("%d of %d operations failed", rec.Failed, rec.Attempted)
	}
	rec.Exact = exactValues(ph)

	all := endToEndValues(phases[0], median(setupTimes))
	all["bench.lag_s_max"] = ph.lagMax.Seconds()
	all["workload.guest_ops"] = float64(ph.guestOps)
	for _, d := range exactCounters {
		all[d.Name] = rec.Exact[d.Name]
	}
	declared := endToEnd
	if traced {
		declared = perLayer()
		if err := layerValues(all, w, phases[0], ph, tr, prof.Bytes()); err != nil {
			return nil, err
		}
	}
	units := map[string]string{}
	for _, d := range append(append([]metricDef(nil), endToEnd...), perLayer()...) {
		units[d.Name] = d.Unit
	}
	for k, v := range all {
		mv := metricValue{Value: v, Unit: units[k]}
		if slices.ContainsFunc(declared, func(d metricDef) bool { return d.Name == k }) {
			rec.Metrics[k] = mv
		} else {
			rec.Other[k] = mv
		}
	}
	for _, d := range declared {
		if _, ok := rec.Metrics[d.Name]; !ok {
			return nil, fmt.Errorf("metric %s was not measured", d.Name)
		}
	}
	if traced {
		if err := writeTrace(traceDir, tr, prof.Bytes(), rec); err != nil {
			return nil, err
		}
	}
	return rec, nil
}

func endToEndValues(ph *timedPhase, setup float64) map[string]float64 {
	return map[string]float64{
		"setup_s":            setup,
		"throughput_per_s":   ph.throughput(),
		"apply_s_p50":        percentile(append([]time.Duration(nil), ph.lat...), 0.5),
		"alloc_kb_per_patch": (float64(ph.alloc) - ph.guestAlloc) / 1024 / float64(max(ph.patches, 1)),
	}
}

// exactValues are the phase's counts, with pause_us_mean derived.
func exactValues(ph *timedPhase) map[string]float64 {
	ex := map[string]float64{}
	for _, d := range exactCounters {
		ex[d.Name] = ph.exact[d.Name]
	}
	ex["core.apply_all_n"] = float64(len(ph.lat))
	ex[pauseUsMean] = ph.exact[pauseNsSum] / 1e3 / float64(max(ph.patches, 1))
	return ex
}

// layerValues adds the traced phase's per-layer metrics to m: span
// latencies and busy shares, CPU per package, and the tracing
// overhead against the untraced phase base.
func layerValues(m map[string]float64, w workloadDef, base, ph *timedPhase, tr *tracer, prof []byte) error {
	ds := tr.durations("core.apply_all")
	m["core.apply_all_s_p50"] = percentile(ds, 0.5)
	m["core.apply_all_s_p99"] = percentile(ds, 0.99)

	self := tr.selfTimes()
	self["orchestrator.self"] = self["orchestrator.run"]
	self["patchserver.build"] = ph.buildTime
	load := ph.wall.Seconds() * float64(w.loadThreads)
	for _, s := range spanLayers {
		m[s+"_pct"] = 100 * self[s].Seconds() / load
	}

	p, err := parseProfile(prof)
	if err != nil {
		return err
	}
	byPkg, total, err := cpuByPackage(p)
	if err != nil {
		return err
	}
	m["cpu.total_s"] = ph.cpu.Seconds()
	for _, l := range cpuBuckets() {
		m["cpu."+l+"_pct"] = 0
	}
	for pkg, ns := range byPkg { // empty when a test-sized phase drew no sample
		key := "other"
		if pkg == runtimeLayer || slices.Contains(cpuLayers, pkg) {
			key = pkg
		}
		m["cpu."+key+"_pct"] += 100 * float64(ns) / float64(total)
	}
	m["bench.trace_overhead"] = base.throughput() / ph.throughput()
	return nil
}

func writeTrace(dir string, tr *tracer, prof []byte, rec *runRecord) error {
	if err := tr.writeSpans(dir); err != nil {
		return err
	}
	if err := os.WriteFile(filepath.Join(dir, "cpu.pprof"), prof, 0o644); err != nil {
		return fmt.Errorf("write profile: %w", err)
	}
	b, err := json.MarshalIndent(rec, "", "  ")
	if err != nil {
		return err
	}
	if err := os.WriteFile(filepath.Join(dir, "metrics.json"), b, 0o644); err != nil {
		return fmt.Errorf("write metrics: %w", err)
	}
	return nil
}

func appendRecord(path string, rec *runRecord) error {
	b, err := json.Marshal(rec)
	if err != nil {
		return err
	}
	f, err := os.OpenFile(path, os.O_APPEND|os.O_CREATE|os.O_WRONLY, 0o644)
	if err != nil {
		return fmt.Errorf("open record file: %w", err)
	}
	if _, err := f.Write(append(b, '\n')); err != nil {
		f.Close()
		return fmt.Errorf("append record: %w", err)
	}
	if err := f.Close(); err != nil {
		return fmt.Errorf("close record file: %w", err)
	}
	return nil
}

// printRecord writes the human-readable table, then the result line.
func printRecord(w io.Writer, rec *runRecord) error {
	var b bytes.Buffer
	fmt.Fprintf(&b, "# workload=%s seed=%d seconds=%g trace=%t\n", rec.Workload, rec.Seed, rec.Seconds, rec.Trace)
	fmt.Fprintf(&b, "# go=%s gomaxprocs=%d cpu=%q\n", rec.Env.Go, rec.Env.GOMAXPROCS, rec.Env.CPU)
	section := func(title string, ms map[string]metricValue) {
		names := make([]string, 0, len(ms))
		for k := range ms {
			names = append(names, k)
		}
		slices.Sort(names)
		fmt.Fprintf(&b, "# %s\n", title)
		for _, k := range names {
			fmt.Fprintf(&b, "%-32s %16.6g %s\n", k, ms[k].Value, ms[k].Unit)
		}
	}
	section("declared metrics", rec.Metrics)
	section("other measured metrics", rec.Other)
	exact := map[string]metricValue{pauseUsMean: {Value: rec.Exact[pauseUsMean], Unit: "us (virtual)"}}
	section("exact for the seed (virtual time)", exact)
	fmt.Fprintf(&b, "# correct=%t attempted=%d failed=%d\n", rec.Correct, rec.Attempted, rec.Failed)

	line, err := json.Marshal(struct {
		Correct   bool                   `json:"correct"`
		Attempted int                    `json:"attempted"`
		Failed    int                    `json:"failed"`
		Metrics   map[string]metricValue `json:"metrics"`
	}{rec.Correct, rec.Attempted, rec.Failed, rec.Metrics})
	if err != nil {
		return err
	}
	b.Write(line)
	b.WriteByte('\n')
	_, err = w.Write(b.Bytes())
	return err
}
