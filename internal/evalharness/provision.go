package evalharness

import (
	"context"
	"fmt"
	"time"

	"kshot/internal/core"
	"kshot/internal/cvebench"
	"kshot/internal/patchserver"
)

// Provisioning-throughput experiment: how fast can targets for one
// kernel configuration be stood up, uncached (each System boots a
// single-use template: kernel build + machine boot, then one fork)
// versus forking one shared booted template (per-fork SMM secrets +
// SMRAM lock)? Neither touches the server: attach waits for first
// contact. The ratio is the template-cache payoff; the resident-byte
// split shows the marginal memory cost of a fork.

// ProvisionBenchResult reports uncached ("cold") versus forked
// provisioning rates.
type ProvisionBenchResult struct {
	ColdBoots int `json:"cold_boots"`
	Forks     int `json:"forks"`

	ColdMean time.Duration `json:"cold_mean_ns"`
	ForkMean time.Duration `json:"fork_mean_ns"`

	ColdPerSec float64 `json:"cold_per_sec"`
	ForkPerSec float64 `json:"fork_per_sec"`
	Speedup    float64 `json:"speedup"`

	// TemplateBoot is the one-time template construction cost the
	// forks amortize.
	TemplateBoot time.Duration `json:"template_boot_ns"`

	// SharedBytes/PrivateBytes are one fork's resident split right
	// after provisioning: shared frames cost nothing marginal, private
	// ones are the fork's true footprint.
	SharedBytes  uint64 `json:"shared_bytes"`
	PrivateBytes uint64 `json:"private_bytes"`
}

func closeAll(systems []*core.System) {
	for _, s := range systems {
		s.Close()
	}
}

// RunProvisionBench provisions cold Systems without a template cache
// and forks forked ones from a single template, measuring both rates
// against one shared patch server and the benchmark CVE configuration.
func RunProvisionBench(cold, forked int) (*ProvisionBenchResult, error) {
	if cold < 1 {
		cold = 3
	}
	if forked < 1 {
		forked = 50
	}
	e, ok := cvebench.Get("CVE-2014-0196")
	if !ok {
		return nil, fmt.Errorf("provision bench: benchmark CVE missing")
	}
	srv, err := patchserver.New(patchserver.WithTreeProvider(cvebench.TreeProviderFor(e)))
	if err != nil {
		return nil, err
	}
	defer srv.Close()
	srv.RegisterPatch(e.SourcePatch())

	opts := core.Options{
		Version:    "4.4",
		ExtraFiles: map[string]string{e.File: e.Vuln},
		ServerAddr: srv.Addr(),
	}
	ctx := context.Background()

	// Both timed loops measure provisioning only: the systems are held
	// until the clock stops and closed outside the window, so teardown
	// cost never pollutes the rate.
	coldSystems := make([]*core.System, 0, cold)
	coldStart := time.Now()
	for i := 0; i < cold; i++ {
		sys, err := core.NewSystemCtx(ctx, opts)
		if err != nil {
			closeAll(coldSystems)
			return nil, fmt.Errorf("uncached provision %d: %w", i, err)
		}
		coldSystems = append(coldSystems, sys)
	}
	coldWall := time.Since(coldStart)
	closeAll(coldSystems)

	tplStart := time.Now()
	tpl, err := core.NewTemplate(ctx, opts)
	if err != nil {
		return nil, err
	}
	defer tpl.Close()
	tplWall := time.Since(tplStart)

	out := &ProvisionBenchResult{
		ColdBoots:    cold,
		Forks:        forked,
		TemplateBoot: tplWall,
	}
	forkSystems := make([]*core.System, 0, forked)
	forkStart := time.Now()
	for i := 0; i < forked; i++ {
		sys, err := tpl.Fork(ctx, opts)
		if err != nil {
			closeAll(forkSystems)
			return nil, fmt.Errorf("fork %d: %w", i, err)
		}
		forkSystems = append(forkSystems, sys)
	}
	forkWall := time.Since(forkStart)
	st := forkSystems[0].Machine.Mem.ResidentStats()
	out.SharedBytes, out.PrivateBytes = st.SharedBytes, st.PrivateBytes
	closeAll(forkSystems)

	out.ColdMean = coldWall / time.Duration(cold)
	out.ForkMean = forkWall / time.Duration(forked)
	if coldWall > 0 {
		out.ColdPerSec = float64(cold) / coldWall.Seconds()
	}
	if forkWall > 0 {
		out.ForkPerSec = float64(forked) / forkWall.Seconds()
	}
	if out.ForkMean > 0 {
		out.Speedup = float64(out.ColdMean) / float64(out.ForkMean)
	}
	return out, nil
}
