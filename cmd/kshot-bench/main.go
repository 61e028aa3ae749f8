// Command kshot-bench regenerates the paper's evaluation artifacts —
// every table and figure of §VI — on the simulated platform and prints
// them (optionally into a file suitable for EXPERIMENTS.md).
//
// Usage:
//
//	kshot-bench -all                 # everything (RQ1 sweep included)
//	kshot-bench -table2 -table3      # size sweeps only
//	kshot-bench -fig4 -fig5 -iters 5 # figures, 5 runs averaged
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
		fleet     = fs.Bool("fleet", false, "fleet distribution: cold vs warm build-cache delivery")
		rollout   = fs.Bool("rollout", false, "fleet rollout: staged canary waves across simulated targets")
		provision = fs.Bool("provision", false, "provisioning throughput: uncached vs template-cache fork")
		dispatch  = fs.Bool("dispatch", false, "execution-engine comparison: oracle interpreter vs predecoded blocks")
		dispops   = fs.Uint64("dispatch-ops", 2000, "workload operations per engine for -dispatch")
		detect    = fs.Bool("detect", false, "introspection: tamper-detection latency vs sweep period, plus overhead")
		dettrials = fs.Int("detect-trials", 20, "tamper injections per sweep period for -detect")
		detops    = fs.Uint64("detect-ops", 20000, "workload operations for the -detect overhead columns")
		clients   = fs.Int("clients", 16, "fleet size for -fleet")
		targets   = fs.Int("targets", 500, "fleet size for -rollout")
		domains   = fs.Int("domains", 4, "failure domains for -rollout")
		rollcves  = fs.Int("rollout-cves", 2, "CVE batch size for -rollout")
		provcold  = fs.Int("prov-cold", 5, "uncached provisionings (single-use template each) to average for -provision")
		provforks = fs.Int("prov-forks", 200, "template forks to average for -provision")
		iters     = fs.Int("iters", 3, "repetitions per measurement")
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

	selected := *table1 || *table2 || *table3 || *fig4 || *fig5 || *table4 || *table5 || *rq1 || *pipeline || *overhead || *trace || *fleet || *rollout || *provision || *dispatch || *detect
	if *all || !selected {
		*table1, *table2, *table3, *fig4, *fig5, *table4, *table5, *rq1, *pipeline, *overhead, *trace, *fleet, *rollout, *provision, *dispatch, *detect =
			true, true, true, true, true, true, true, true, true, true, true, true, true, true, true, true
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
		progress("running size sweep (%d iters per size)...\n", *iters)
		var err error
		sizePoints, err = evalharness.RunSizeSweep(*iters, kcrypto.HashSHA256)
		if err != nil {
			return err
		}
		if *jsonOut {
			results["size_sweep"] = sizePoints
		}
	}
	if *table2 && !*jsonOut {
		if err := evalharness.Table2(sizePoints, *iters).Render(out); err != nil {
			return err
		}
		fmt.Fprintln(out)
	}
	if *table3 && !*jsonOut {
		if err := evalharness.Table3(sizePoints, *iters).Render(out); err != nil {
			return err
		}
		fmt.Fprintln(out)
	}

	if *fig4 || *fig5 {
		progress("running whole-system CVE measurements (%d iters per CVE)...\n", *iters)
		points, err := evalharness.RunFigureCVEs(*iters)
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
			SyncFetch: true,
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

	if *fleet {
		progress("running fleet distribution (cold vs warm cache, %d clients, %d rounds)...\n", *clients, *iters)
		fr, err := evalharness.RunFleetBench(*clients, *iters)
		if err != nil {
			return err
		}
		if *jsonOut {
			results["fleet"] = fr
		} else {
			fmt.Fprintf(out, "Fleet distribution (%d clients, one CVE, real TCP loopback):\n", fr.Clients)
			fmt.Fprintf(out, "  cold cache: %v per request (every wave rebuilds both kernels)\n", fr.ColdPer)
			fmt.Fprintf(out, "  warm cache: %v per request (cached artifact, per-session encryption only)\n", fr.WarmPer)
			fmt.Fprintf(out, "  speedup: %.1fx; kernel builds: %d for %d requests served\n",
				fr.Speedup, fr.Builds, fr.Requests)
			fmt.Fprintln(out)
		}
	}

	if *rollout {
		progress("running fleet rollout (%d targets, %d domains, %d CVEs, staged waves)...\n",
			*targets, *domains, *rollcves)
		rr, err := evalharness.RunRolloutBench(*targets, *domains, *rollcves, 4)
		if err != nil {
			return err
		}
		if *jsonOut {
			results["rollout"] = rr
		} else {
			fmt.Fprintf(out, "Fleet rollout (%d targets in %d domains, %d CVEs, canary → %%-waves, template-fork provisioning):\n",
				rr.Targets, rr.Domains, rr.CVEs)
			fmt.Fprintf(out, "  waves: %d; patched %d, failed %d, rolled back %d\n",
				rr.Waves, rr.Patched, rr.Failed, rr.RolledBk)
			fmt.Fprintf(out, "  throughput: %.1f targets/s (wall %v)\n", rr.TargetsPerSec, rr.Wall)
			fmt.Fprintf(out, "  provisioning: %v mean per target (%.0f systems/s)\n",
				rr.ProvisionMean, rr.ProvisionPerSec)
			fmt.Fprintf(out, "  template cache: %d misses, %d hits, %d forks\n",
				rr.TemplateMisses, rr.TemplateHits, rr.TemplateForks)
			fmt.Fprintf(out, "  per-target virtual SMM pause: mean %sus, p99 %sus\n",
				report.Us(rr.MeanPause), report.Us(rr.P99Pause))
			fmt.Fprintln(out)
		}
	}

	if *provision {
		progress("running provisioning throughput (%d uncached vs %d template forks)...\n",
			*provcold, *provforks)
		pr, err := evalharness.RunProvisionBench(*provcold, *provforks)
		if err != nil {
			return err
		}
		if *jsonOut {
			results["provision"] = pr
		} else {
			fmt.Fprintf(out, "Provisioning throughput (one configuration, %d uncached vs %d forks):\n",
				pr.ColdBoots, pr.Forks)
			fmt.Fprintf(out, "  uncached:      %v per system (%.0f systems/s)\n", pr.ColdMean, pr.ColdPerSec)
			fmt.Fprintf(out, "  template fork: %v per system (%.0f systems/s), %.1fx\n", pr.ForkMean, pr.ForkPerSec, pr.Speedup)
			fmt.Fprintf(out, "  template boot (one-time): %v\n", pr.TemplateBoot)
			fmt.Fprintf(out, "  fresh-fork resident split: %d B shared, %d B private\n", pr.SharedBytes, pr.PrivateBytes)
			fmt.Fprintln(out)
		}
	}

	if *dispatch {
		progress("running execution-engine comparison (oracle vs blocks, %d ops each)...\n", *dispops)
		dr, err := evalharness.RunDispatchBench("CVE-2014-4157", *dispops)
		if err != nil {
			return err
		}
		if *jsonOut {
			results["dispatch"] = dr
		} else {
			fmt.Fprintf(out, "Execution engine (workload under patch, %s, %d ops per engine):\n", dr.CVE, dr.Oracle.Ops)
			fmt.Fprintf(out, "  oracle (decode-switch): %.0f ops/s (wall %v)\n", dr.Oracle.OpsPerSec, dr.Oracle.Wall)
			fmt.Fprintf(out, "  blocks (predecoded):    %.0f ops/s (wall %v)\n", dr.Blocks.OpsPerSec, dr.Blocks.Wall)
			fmt.Fprintf(out, "  speedup: %.1fx; virtual stage metrics bit-identical across engines\n", dr.Speedup)
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
