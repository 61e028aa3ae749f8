// Command kshot-rollout drives a staged fleet rollout: one
// coordinator patching a CVE batch across N simulated target machines
// in canary → percentage → exponentially widening waves, each wave
// health-gated on the targets' own metrics and rolled back when the
// gate fails. Targets are spread across failure domains; no wave ever
// carries a quorum of one domain.
//
// Usage:
//
//	kshot-rollout -targets 32 -domains 4 -cves CVE-2016-0728,CVE-2014-0196
//	kshot-rollout -targets 64 -chaos-frac 0.03 -seed 7   # seeded mid-SMI chaos
//	kshot-rollout -state /tmp/roll.state                 # crash-resumable
//
// With -state, progress persists once each wave's targets have run
// and at its health gate: rerunning the same command resumes where the
// previous coordinator stopped instead of re-patching completed targets.
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"strings"
	"time"

	"kshot"
)

func main() {
	if err := run(os.Args[1:], os.Stdout); err != nil {
		fmt.Fprintln(os.Stderr, "kshot-rollout:", err)
		os.Exit(1)
	}
}

func run(args []string, out io.Writer) error {
	fs := flag.NewFlagSet("kshot-rollout", flag.ContinueOnError)
	targets := fs.Int("targets", 24, "fleet size")
	domains := fs.Int("domains", 4, "failure domains the fleet spans")
	cves := fs.String("cves", "CVE-2016-0728,CVE-2014-0196", "comma-separated CVE batch")
	seed := fs.Int64("seed", 1, "determinism root for wave plan and chaos")
	canary := fs.Int("canary", 1, "canary wave size")
	firstFrac := fs.Float64("first-frac", 0.05, "fleet fraction in the first post-canary wave")
	growth := fs.Float64("growth", 2.0, "wave size growth factor")
	concurrency := fs.Int("concurrency", 4, "targets patched in parallel per wave")
	pauseBudget := fs.Duration("pause-budget", 0, "per-target virtual SMM pause budget (0 = unlimited)")
	statePath := fs.String("state", "", "persist rollout state to this file (enables crash resume)")
	chaosFrac := fs.Float64("chaos-frac", 0, "fraction of the fleet that refuses SMIs (seeded chaos)")
	chaosSMIs := fs.Int("chaos-smis", 64, "SMI deliveries each chaotic target refuses")
	if err := fs.Parse(args); err != nil {
		return err
	}

	var entries []*kshot.CVE
	var ids []string
	files := map[string]string{}
	for _, id := range strings.Split(*cves, ",") {
		id = strings.TrimSpace(id)
		e, ok := kshot.LookupCVE(id)
		if !ok {
			return fmt.Errorf("unknown CVE %q (see kshot-cvelist)", id)
		}
		entries = append(entries, e)
		ids = append(ids, id)
		files[e.File] = e.Vuln
	}

	srv, err := kshot.NewPatchServer(kshot.WithTreeProvider(kshot.TreeProviderFor(entries...)))
	if err != nil {
		return err
	}
	defer srv.Close()
	for _, e := range entries {
		srv.RegisterPatch(e.SourcePatch())
	}
	fmt.Fprintf(out, "patch server on %s; fleet of %d targets across %d domains\n",
		srv.Addr(), *targets, *domains)

	fleet := make([]kshot.RolloutTarget, *targets)
	for i := range fleet {
		fleet[i] = kshot.RolloutTarget{
			ID:     fmt.Sprintf("node-%03d", i),
			Domain: fmt.Sprintf("dom-%d", i%*domains),
		}
	}

	opts := []kshot.RolloutOption{
		kshot.WithTargets(fleet),
		kshot.WithCVEs(ids...),
		kshot.WithProvisioner(kshot.SystemProvisioner(srv.Addr(), kshot.WithExtraFiles(files))),
		kshot.WithSeed(*seed),
		kshot.WithCanarySize(*canary),
		kshot.WithFirstWaveFraction(*firstFrac),
		kshot.WithGrowthFactor(*growth),
		kshot.WithWaveConcurrency(*concurrency),
		kshot.WithProgress(func(wr kshot.WaveResult) {
			verdict := "healthy"
			if wr.RolledBack {
				verdict = fmt.Sprintf("ROLLED BACK (unhealthy: %s)", strings.Join(wr.Unhealthy, ", "))
			}
			resumed := ""
			if wr.Resumed > 0 {
				resumed = fmt.Sprintf(", %d resumed", wr.Resumed)
			}
			fmt.Fprintf(out, "  wave %d: %d targets%s, mean downtime %v — %s\n",
				wr.Index, len(wr.Targets), resumed, wr.MeanDowntime, verdict)
		}),
	}
	if *pauseBudget > 0 {
		opts = append(opts, kshot.WithPauseBudget(*pauseBudget))
	}
	if *statePath != "" {
		opts = append(opts, kshot.WithStateStore(kshot.NewRolloutFileStore(*statePath)))
	}
	if *chaosFrac > 0 {
		opts = append(opts, kshot.WithTargetFaults(
			kshot.FaultFraction(*seed, *chaosFrac, kshot.SMIFaults(*chaosSMIs)...)))
	}

	roll, err := kshot.NewRollout(opts...)
	if err != nil {
		return err
	}
	plan := roll.Plan()
	fmt.Fprintf(out, "plan: %d waves (canary %d", len(plan), len(plan[0].Targets))
	for _, w := range plan[1:] {
		fmt.Fprintf(out, " → %d", len(w.Targets))
	}
	fmt.Fprintln(out, ")")

	start := time.Now()
	res, runErr := roll.Run(context.Background())
	wall := time.Since(start)

	fmt.Fprintf(out, "rollout finished in %v: %d patched, %d failed, %d rolled back",
		wall, res.Patched, res.Failed, res.RolledBack)
	if res.Baseline > 0 {
		fmt.Fprintf(out, " (canary baseline %v)", res.Baseline)
	}
	fmt.Fprintln(out)

	switch {
	case runErr == nil:
	case errors.Is(runErr, kshot.ErrRolloutHalted):
		fmt.Fprintln(out, "HALTED:", runErr)
	case errors.Is(runErr, kshot.ErrWaveRolledBack):
		fmt.Fprintln(out, "completed with rolled-back waves:", runErr)
	default:
		return runErr
	}
	return nil
}
