// Command kshot-bench regenerates the paper's evaluation artifacts —
// every table and figure of §VI — on the simulated platform and prints
// them (optionally into a file suitable for EXPERIMENTS.md).
//
// Usage:
//
//	kshot-bench -all                 # everything (RQ1 sweep included)
//	kshot-bench -table2 -table3      # size sweeps only
//	kshot-bench -fig4 -fig5          # per-CVE figures
//	kshot-bench -rq1 -version 3.14   # applicability sweep on 3.14
//	kshot-bench -overhead -patches 1000
//	kshot-bench -trace               # per-CVE phase breakdown + metrics + trace
//
// Output is plain text; pass -o FILE to also write it to a file.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"time"

	"kshot/internal/evalharness"
	"kshot/internal/kcrypto"
	"kshot/internal/report"
	"kshot/internal/timing"
)

func main() {
	if err := run(os.Args[1:], os.Stdout); err != nil {
		fmt.Fprintln(os.Stderr, "kshot-bench:", err)
		os.Exit(1)
	}
}

func run(args []string, stdout io.Writer) error {
	fs := flag.NewFlagSet("kshot-bench", flag.ContinueOnError)
	var (
		all       = fs.Bool("all", false, "run every experiment")
		table1    = fs.Bool("table1", false, "Table I: benchmark suite")
		table2    = fs.Bool("table2", false, "Table II: SGX breakdown by size")
		table3    = fs.Bool("table3", false, "Table III: SMM breakdown by size")
		fig4      = fs.Bool("fig4", false, "Figure 4: SGX time per CVE")
		fig5      = fs.Bool("fig5", false, "Figure 5: SMM time per CVE")
		table4    = fs.Bool("table4", false, "Table IV: general comparison")
		table5    = fs.Bool("table5", false, "Table V: kernel patching comparison")
		rq1       = fs.Bool("rq1", false, "RQ1: patch all 30 CVEs")
		pipeline  = fs.Bool("pipeline", false, "pipelined ApplyAll vs serial Apply")
		overhead  = fs.Bool("overhead", false, "whole-system overhead")
		trace     = fs.Bool("trace", false, "per-CVE phase breakdown with metrics and event trace")
		detect    = fs.Bool("detect", false, "introspection: tamper-detection latency vs sweep period, plus overhead")
		dettrials = fs.Int("detect-trials", 20, "tamper injections per sweep period for -detect")
		detops    = fs.Uint64("detect-ops", 20000, "workload operations for the -detect overhead columns")
		patches   = fs.Int("patches", 100, "patch storm size for -overhead")
		batch     = fs.Int("batch", 8, "batch size for -pipeline")
		workers   = fs.Int("workers", 4, "fetch workers for -pipeline")
		version   = fs.String("version", "4.4", "kernel version for -rq1/-pipeline")
		outFile   = fs.String("o", "", "also write output to this file")
		csv       = fs.Bool("csv", false, "emit figures as CSV instead of ASCII bars")
		jsonOut   = fs.Bool("json", false, "emit one machine-readable JSON document instead of text")
	)
	if err := fs.Parse(args); err != nil {
		return err
	}

	out := stdout
	if *outFile != "" {
		f, err := os.Create(*outFile)
		if err != nil {
			return err
		}
		defer f.Close()
		out = io.MultiWriter(stdout, f)
	}

	selected := *table1 || *table2 || *table3 || *fig4 || *fig5 || *table4 || *table5 || *rq1 || *pipeline || *overhead || *trace || *detect
	if *all || !selected {
		*table1, *table2, *table3, *fig4, *fig5, *table4, *table5, *rq1, *pipeline, *overhead, *trace, *detect =
			true, true, true, true, true, true, true, true, true, true, true, true
	}

	// In JSON mode, data-bearing experiments accumulate here and are
	// emitted as one document; progress chatter and the qualitative
	// text tables (I and IV) are suppressed so the output parses.
	results := make(map[string]any)
	progress := func(format string, a ...any) {
		if !*jsonOut {
			fmt.Fprintf(out, format, a...)
		}
	}

	if *table1 && !*jsonOut {
		t, err := evalharness.Table1()
		if err != nil {
			return err
		}
		if err := t.Render(out); err != nil {
			return err
		}
		fmt.Fprintln(out)
	}

	var sizePoints []evalharness.SizePoint
	if *table2 || *table3 {
		progress("running size sweep...\n")
		var err error
		sizePoints, err = evalharness.RunSizeSweep(kcrypto.HashSHA256)
		if err != nil {
			return err
		}
		if *jsonOut {
			results["size_sweep"] = sizePoints
		}
	}
	if *table2 && !*jsonOut {
		if err := evalharness.Table2(sizePoints).Render(out); err != nil {
			return err
		}
		fmt.Fprintln(out)
	}
	if *table3 && !*jsonOut {
		if err := evalharness.Table3(sizePoints).Render(out); err != nil {
			return err
		}
		fmt.Fprintln(out)
	}

	if *fig4 || *fig5 {
		progress("running whole-system CVE measurements...\n")
		points, err := evalharness.RunFigureCVEs()
		if err != nil {
			return err
		}
		if *jsonOut {
			results["figure_cves"] = points
		}
		render := func(f *report.Figure) error {
			if *csv {
				return f.RenderCSV(out)
			}
			return f.Render(out)
		}
		if *jsonOut {
			render = func(*report.Figure) error { return nil }
		}
		if *fig4 {
			if err := render(evalharness.Figure4(points)); err != nil {
				return err
			}
			fmt.Fprintln(out)
		}
		if *fig5 {
			if err := render(evalharness.Figure5(points)); err != nil {
				return err
			}
			fmt.Fprintln(out)
		}
	}

	if *table4 && !*jsonOut {
		if err := evalharness.Table4().Render(out); err != nil {
			return err
		}
		fmt.Fprintln(out)
	}
	if *table5 {
		rows, err := evalharness.RunTable5("CVE-2014-4157")
		if err != nil {
			return err
		}
		if *jsonOut {
			results["table5"] = rows
		} else {
			if err := evalharness.Table5(rows).Render(out); err != nil {
				return err
			}
			fmt.Fprintln(out)
		}
	}

	if *rq1 {
		progress("running RQ1 sweep on kernel %s (30 CVEs)...\n", *version)
		rows, err := evalharness.RunRQ1(*version, func(r evalharness.RQ1Row) {
			progress("  %-18s pause %sus  %v\n", r.CVE, report.Us(r.PauseVirtual), r.Passed())
		})
		if err != nil {
			return err
		}
		if *jsonOut {
			results["rq1"] = rows
		} else {
			if err := evalharness.RQ1Table(rows).Render(out); err != nil {
				return err
			}
			fmt.Fprintln(out)
		}
	}

	if *pipeline {
		progress("running pipelined ApplyAll vs serial (batch %d, %d workers)...\n", *batch, *workers)
		p, err := evalharness.RunPipelinedComparison(*version, *batch, *workers)
		if err != nil {
			return err
		}
		if *jsonOut {
			results["pipeline"] = p
		} else {
			if err := evalharness.PipelinedTable(p, *batch, *workers).Render(out); err != nil {
				return err
			}
			fmt.Fprintln(out)
		}
	}

	if *trace {
		progress("running phase-level observability breakdown (30 CVEs, deterministic clock)...\n")
		b, err := evalharness.RunPhaseBreakdown(evalharness.PhaseOptions{
			Version:   *version,
			BatchSize: *batch,
			Workers:   1,
			Wall:      timing.NewFakeWall(),
		})
		if err != nil {
			return err
		}
		if *jsonOut {
			// Hooks holds live tracer state; the rows and counters are
			// the machine-readable part.
			results["phases"] = map[string]any{
				"rows": b.Rows, "waves": b.Waves, "smis": b.SMIs, "smm_pause": b.SMMPause,
			}
		} else {
			if err := evalharness.RenderPhaseReport(out, b); err != nil {
				return err
			}
			fmt.Fprintln(out)
		}
	}

	if *detect {
		progress("running tamper-detection latency (%d injections per sweep period)...\n", *dettrials)
		dr, err := evalharness.RunDetectionBench(*dettrials, nil, *detops)
		if err != nil {
			return err
		}
		if *jsonOut {
			results["detection"] = dr
		} else {
			fmt.Fprintf(out, "Introspection detection latency (%s, %d tamper injections per period):\n",
				dr.CVE, *dettrials)
			fmt.Fprintf(out, "  %-10s %12s %12s %12s %8s\n", "period", "p50", "p99", "mean", "sweeps")
			for _, p := range dr.Periods {
				fmt.Fprintf(out, "  %-10v %12v %12v %12v %8d\n", p.Period, p.P50, p.P99, p.Mean, p.Sweeps)
			}
			fmt.Fprintf(out, "  workload (%d ops): %.0f ops/s off, %.0f ops/s sweeping; overhead %.1f%%\n",
				dr.WorkloadOps, dr.BaselineOpsPerSec, dr.EnabledOpsPerSec, dr.OverheadPct)
			fmt.Fprintln(out)
		}
	}

	if *overhead {
		progress("running whole-system overhead (%d-patch storm)...\n", *patches)
		res, err := evalharness.RunOverhead(*patches, 2*time.Second)
		if err != nil {
			return err
		}
		if *jsonOut {
			results["overhead"] = res
			return emitJSON(out, results)
		}
		fmt.Fprintf(out, "Sysbench-style workload overhead (§VI-C3):\n")
		fmt.Fprintf(out, "  baseline:   %d ops (%.0f ops/s)\n", res.Baseline.Ops, res.Baseline.OpsPerSec())
		fmt.Fprintf(out, "  with storm: %d ops (%.0f ops/s)\n", res.Disturbed.Ops, res.Disturbed.OpsPerSec())
		fmt.Fprintf(out, "  wall-clock overhead: %.1f%% (simulation-bound; see EXPERIMENTS.md)\n", res.Overhead*100)
		fmt.Fprintf(out, "  virtual OS pause per patch: %sus; pause fraction: %.3f%%\n",
			report.Us(res.PausePerOp), res.VirtualPauseFraction*100)
	}
	if *jsonOut {
		return emitJSON(out, results)
	}
	return nil
}

// emitJSON writes the accumulated experiment results as one indented
// JSON document. Durations are encoded as integer nanoseconds.
func emitJSON(out io.Writer, results map[string]any) error {
	enc := json.NewEncoder(out)
	enc.SetIndent("", "  ")
	return enc.Encode(results)
}
