package evalharness

import (
	"context"
	"fmt"
	"sort"
	"sync/atomic"
	"time"

	"kshot/internal/core"
	"kshot/internal/cvebench"
	"kshot/internal/orchestrator"
	"kshot/internal/patchserver"
)

// RolloutBenchResult is the fleet-rollout experiment: one coordinator
// driving a CVE batch across a simulated fleet in staged canary waves,
// every target forked from one cached template and fetching from one
// shared patch server. Throughput is wall-clock (the real coordinator and
// server are being measured); the pause percentiles are virtual SMM
// time (the paper's downtime metric).
type RolloutBenchResult struct {
	Targets  int `json:"targets"`
	Domains  int `json:"domains"`
	CVEs     int `json:"cves"`
	Waves    int `json:"waves"`
	Patched  int `json:"patched"`
	Failed   int `json:"failed"`
	RolledBk int `json:"rolled_back"`

	Wall          time.Duration `json:"wall_ns"`
	TargetsPerSec float64       `json:"targets_per_sec"`

	MeanPause time.Duration `json:"mean_target_pause_ns"`
	P99Pause  time.Duration `json:"p99_target_pause_ns"`

	// Provisioning accounting: how much of the rollout went into
	// standing targets up, and at what rate; the template-cache
	// counters show how the fleet shared boots.
	ProvisionMean   time.Duration `json:"provision_mean_ns"`
	ProvisionPerSec float64       `json:"provisions_per_sec"`
	TemplateHits    int64         `json:"template_hits,omitempty"`
	TemplateMisses  int64         `json:"template_misses,omitempty"`
	TemplateForks   int64         `json:"template_forks,omitempty"`
}

// RunRolloutBench measures the rollout orchestrator end to end:
// targets simulated machines across domains failure domains, patching
// cves CVEs from the benchmark registry in staged waves of
// concurrency-bounded parallelism. Every target is a fork of one
// cached template. Out-of-range arguments get the defaults: 2 targets,
// 1 domain, 2 CVEs, concurrency 4.
func RunRolloutBench(targets, domains, cves, concurrency int) (*RolloutBenchResult, error) {
	if targets < 2 {
		targets = 2
	}
	if domains < 1 {
		domains = 1
	}
	if concurrency < 1 {
		concurrency = 4
	}
	entries := cvebench.FigureSix()
	if cves < 1 || cves > len(entries) {
		cves = 2
	}
	entries = entries[:cves]

	ids := make([]string, len(entries))
	files := make(map[string]string, len(entries))
	for i, e := range entries {
		ids[i] = e.CVE
		files[e.File] = e.Vuln
	}
	srv, err := patchserver.New(patchserver.WithTreeProvider(cvebench.TreeProviderFor(entries...)))
	if err != nil {
		return nil, err
	}
	defer srv.Close()
	for _, e := range entries {
		srv.RegisterPatch(e.SourcePatch())
	}

	fleet := make([]orchestrator.Target, targets)
	for i := range fleet {
		fleet[i] = orchestrator.Target{
			ID:     fmt.Sprintf("bench-%03d", i),
			Domain: fmt.Sprintf("dom-%d", i%domains),
		}
	}

	cache := core.NewTemplateCache()
	defer cache.Close()
	sysOpts := core.Options{
		Version:       "4.4",
		ExtraFiles:    files,
		ServerAddr:    srv.Addr(),
		TemplateCache: cache,
	}
	// Provisioning rate is accounted inside the provisioner so it
	// reflects exactly what the orchestrator paid, wave scheduling and
	// all excluded.
	var provNanos, provCount atomic.Int64
	roll, err := orchestrator.New(
		orchestrator.WithTargets(fleet),
		orchestrator.WithCVEs(ids...),
		orchestrator.WithProvisioner(func(ctx context.Context, t orchestrator.Target) (orchestrator.Patcher, error) {
			start := time.Now()
			sys, err := core.NewSystemCtx(ctx, sysOpts)
			if err != nil {
				return nil, err
			}
			provNanos.Add(int64(time.Since(start)))
			provCount.Add(1)
			return sys, nil
		}),
		orchestrator.WithSeed(1),
		orchestrator.WithFirstWaveFraction(0.05),
		orchestrator.WithWaveConcurrency(concurrency),
	)
	if err != nil {
		return nil, err
	}

	start := time.Now()
	res, runErr := roll.Run(context.Background())
	wall := time.Since(start)
	if runErr != nil {
		return nil, fmt.Errorf("rollout bench: %w", runErr)
	}

	out := &RolloutBenchResult{
		Targets:  targets,
		Domains:  domains,
		CVEs:     cves,
		Waves:    len(res.Waves),
		Patched:  res.Patched,
		Failed:   res.Failed,
		RolledBk: res.RolledBack,
		Wall:     wall,
	}
	if wall > 0 {
		out.TargetsPerSec = float64(targets) / wall.Seconds()
	}
	if n := provCount.Load(); n > 0 {
		out.ProvisionMean = time.Duration(provNanos.Load() / n)
		if provNanos.Load() > 0 {
			out.ProvisionPerSec = float64(n) / (time.Duration(provNanos.Load())).Seconds()
		}
	}
	st := cache.Stats()
	out.TemplateHits, out.TemplateMisses, out.TemplateForks = st.Hits, st.Misses, st.Forks

	pauses := make([]time.Duration, 0, len(res.Targets))
	var sum time.Duration
	for _, ts := range res.Targets {
		pauses = append(pauses, ts.Pause)
		sum += ts.Pause
	}
	sort.Slice(pauses, func(i, j int) bool { return pauses[i] < pauses[j] })
	if n := len(pauses); n > 0 {
		out.MeanPause = sum / time.Duration(n)
		idx := (99*n + 99) / 100 // ceil(0.99 n)
		if idx > n {
			idx = n
		}
		out.P99Pause = pauses[idx-1]
	}
	return out, nil
}
