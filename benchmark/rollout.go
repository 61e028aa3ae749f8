package main

import (
	"context"
	"fmt"
	"math"
	"math/rand"
	"slices"
	"sync"
	"time"

	"kshot/internal/core"
	"kshot/internal/cvebench"
	"kshot/internal/obs"
	"kshot/internal/orchestrator"
)

// Rollout workload shape.
const (
	rolloutTargets     = 4000
	rolloutWarmTargets = 64
	rolloutDomains     = 4
	rolloutConcurrency = 2
	rolloutFirstFrac   = 0.05
	rolloutCVEs        = 2 // CVEs per batch
	// rolloutBatchSeconds is the nominal wall time of one batch on the
	// reference machine; --seconds / this is the number of batches.
	rolloutBatchSeconds = 2.6
	// rolloutMemEvery spaces the targets whose resident memory is read
	// after ApplyAll: ResidentStats walks every frame, too slow to run
	// on each target inside the timed window.
	rolloutMemEvery = 32
)

// kernelConfig is one kernel build configuration of the mixed fleet.
type kernelConfig struct {
	version  string
	noFtrace bool
}

// rolloutConfigs are assigned round-robin over the fleet, so the
// template cache and the server's build cache each serve four keys.
var rolloutConfigs = []kernelConfig{{"4.4", false}, {"4.4", true}, {"3.14", false}, {"3.14", true}}

type rolloutRunner struct {
	p       params
	wave    []*cvebench.Entry
	perm    []int // seed order of the wave; batch k patches perm[2k], perm[2k+1]
	server  *patchServer
	cache   *core.TemplateCache
	files   map[string]string
	targets int
	batch   int // batches run so far, warm-up included

	outcomes []rolloutOutcome // every batch, for check
}

// rolloutOutcome is one batch's result, checked after the timed phase.
type rolloutOutcome struct {
	cves    []string
	targets int
	res     *orchestrator.Result
	err     error
	builds  uint64
}

func setupRollout(ctx context.Context, p params) (runner, error) {
	wave := tableOneWave()
	r := &rolloutRunner{
		p:       p,
		wave:    wave,
		perm:    rand.New(rand.NewSource(p.seed)).Perm(len(wave)),
		files:   vulnFiles(wave),
		cache:   core.NewTemplateCache(),
		targets: rolloutTargets,
	}
	warm := rolloutWarmTargets
	if p.tiny {
		r.targets, warm = 16, 8
	}
	var err error
	if r.server, err = newPatchServer(wave); err != nil {
		r.cache.Close()
		return nil, err
	}
	// Warm-up: boots the four templates; its outcome is checked with
	// the timed batches'.
	if _, err := r.runBatch(ctx, warm, nil, newRolloutAcc()); err != nil {
		r.close()
		return nil, err
	}
	return r, nil
}

func (r *rolloutRunner) measure(ctx context.Context, tr *tracer) (*phaseResult, error) {
	r.server.tr.Store(tr)
	defer r.server.tr.Store(nil)
	batches := 1
	if !r.p.tiny {
		batches = max(1, int(math.Round(r.p.seconds/rolloutBatchSeconds)))
	}
	srv0, tpl0 := r.server.stats(), r.cache.Stats()
	acc := newRolloutAcc()
	ph := newPhaseResult()
	due := time.Now() // closed loop: each batch is due when the last returns
	for b := 0; b < batches; b++ {
		ph.lagMax = max(ph.lagMax, time.Since(due))
		start := time.Now()
		out, err := r.runBatch(ctx, r.targets, tr, acc)
		if err != nil {
			return nil, err
		}
		due = time.Now()
		ph.rates = append(ph.rates, float64(out.targets)/due.Sub(start).Seconds())
		ph.attempted += out.targets
		ph.failed += out.targets - out.res.Patched
	}
	r.server.since(srv0, ph)
	tpl := r.cache.Stats()
	ph.exact["template.misses"] = float64(tpl.Misses - tpl0.Misses)
	ph.exact["template.forks"] = float64(tpl.Forks - tpl0.Forks)
	acc.fill(ph)
	return ph, nil
}

// runBatch rolls one CVE batch out over a fresh fleet of n targets.
// The server's build cache is flushed first, so every batch pays its
// cold builds inside the timed phase, as a newly released fix would.
func (r *rolloutRunner) runBatch(ctx context.Context, n int, tr *tracer, acc *rolloutAcc) (rolloutOutcome, error) {
	k := r.batch
	r.batch++
	cves := make([]string, rolloutCVEs)
	for i := range cves {
		cves[i] = r.wave[r.perm[(rolloutCVEs*k+i)%len(r.wave)]].CVE
	}
	fleet := make([]orchestrator.Target, n)
	index := make(map[string]int, n)
	for i := range fleet {
		id := fmt.Sprintf("t%05d", i)
		fleet[i] = orchestrator.Target{ID: id, Domain: fmt.Sprintf("d%d", (i/len(rolloutConfigs))%rolloutDomains)}
		index[id] = i
	}
	r.server.srv.FlushCache()
	builds0 := r.server.srv.Builds()

	run := tr.begin("orchestrator.run", fmt.Sprintf("batch%d", k), 0)
	roll, err := orchestrator.New(
		orchestrator.WithTargets(fleet),
		orchestrator.WithCVEs(cves...),
		orchestrator.WithProvisioner(func(ctx context.Context, t orchestrator.Target) (orchestrator.Patcher, error) {
			start := time.Now()
			sp := tr.begin("core.provision", t.ID, run.id)
			i := index[t.ID]
			cfg := rolloutConfigs[i%len(rolloutConfigs)]
			sys, err := core.NewSystemCtx(ctx, core.Options{
				Version:       cfg.version,
				DisableFtrace: cfg.noFtrace,
				ExtraFiles:    r.files,
				ServerAddr:    r.server.srv.Addr(),
				TemplateCache: r.cache,
			})
			tr.end(sp)
			if err != nil {
				return nil, err
			}
			return &fleetTarget{System: sys, id: t.ID, start: start, readMem: i%rolloutMemEvery == 0,
				tr: tr, parent: run.id, acc: acc}, nil
		}),
		orchestrator.WithSeed(r.p.seed*1000+int64(k)),
		orchestrator.WithFirstWaveFraction(rolloutFirstFrac),
		orchestrator.WithWaveConcurrency(rolloutConcurrency),
	)
	if err != nil {
		return rolloutOutcome{}, err
	}
	res, runErr := roll.Run(ctx)
	tr.end(run)
	if res == nil {
		return rolloutOutcome{}, fmt.Errorf("rollout batch %d: %w", k, runErr)
	}
	out := rolloutOutcome{cves: cves, targets: n, res: res, err: runErr, builds: r.server.srv.Builds() - builds0}
	r.outcomes = append(r.outcomes, out)
	return out, nil
}

// check verifies every batch: all targets patched with exactly the
// batch's CVEs, and one cold build per kernel configuration and CVE.
func (r *rolloutRunner) check(context.Context) error {
	for k, out := range r.outcomes {
		if out.err != nil {
			return fmt.Errorf("batch %d: %w", k, out.err)
		}
		if out.res.Patched != out.targets || len(out.res.Targets) != out.targets {
			return fmt.Errorf("batch %d: %d of %d targets patched (%d failed, %d rolled back)",
				k, out.res.Patched, out.targets, out.res.Failed, out.res.RolledBack)
		}
		for _, ts := range out.res.Targets {
			if !slices.Equal(ts.Applied, out.cves) {
				return fmt.Errorf("batch %d: target %s applied %v, want %v", k, ts.ID, ts.Applied, out.cves)
			}
		}
		if want := uint64(len(rolloutConfigs) * len(out.cves)); out.builds != want {
			return fmt.Errorf("batch %d: %d patch builds, want %d (configs x CVEs)", k, out.builds, want)
		}
	}
	return nil
}

func (r *rolloutRunner) close() {
	r.cache.Close()
	r.server.close()
}

// fleetTarget is the Patcher the orchestrator drives: a forked System
// whose calls the benchmark times and whose observer it keeps, to read
// the target's counters after ApplyAll.
type fleetTarget struct {
	*core.System
	id      string
	start   time.Time // provisioning start
	readMem bool
	hooks   *obs.Hooks
	tr      *tracer
	parent  int64
	acc     *rolloutAcc
}

func (f *fleetTarget) SetObserver(h *obs.Hooks) {
	f.hooks = h
	f.System.SetObserver(h)
}

func (f *fleetTarget) ApplyAll(ctx context.Context, cves []string, opts ...core.ApplyOption) (*core.BatchReport, error) {
	sp := f.tr.begin("core.apply_all", f.id, f.parent)
	rep, err := f.System.ApplyAll(ctx, cves, opts...)
	f.tr.end(sp)
	lat := time.Since(f.start)
	if rep != nil {
		kb := -1.0
		if f.readMem {
			kb = privateKB(f.System)
		}
		f.acc.add(lat, rep, ecalls(f.hooks), kb)
	}
	return rep, err
}

func (f *fleetTarget) Close() {
	sp := f.tr.begin("core.close", f.id, f.parent)
	f.System.Close()
	f.tr.end(sp)
}

// rolloutAcc gathers per-target results from the concurrent wave
// workers.
type rolloutAcc struct {
	mu      sync.Mutex
	lat     []time.Duration
	patches int
	exact   map[string]float64
	memKB   float64
	memN    int
}

func newRolloutAcc() *rolloutAcc { return &rolloutAcc{exact: map[string]float64{}} }

// add records one target; memKB < 0 means its memory was not read.
func (a *rolloutAcc) add(lat time.Duration, rep *core.BatchReport, ecalls, memKB float64) {
	a.mu.Lock()
	defer a.mu.Unlock()
	a.lat = append(a.lat, lat)
	a.patches += len(rep.Reports)
	addBatchReport(a.exact, rep)
	a.exact["sgx.ecalls"] += ecalls
	if memKB >= 0 {
		a.memKB += memKB
		a.memN++
	}
}

func (a *rolloutAcc) fill(ph *phaseResult) {
	a.mu.Lock()
	defer a.mu.Unlock()
	ph.lat = a.lat
	ph.patches = a.patches
	for k, v := range a.exact {
		ph.exact[k] = v
	}
	if a.memN > 0 {
		ph.exact["mem.private_kb_per_target"] = a.memKB / float64(a.memN)
	}
}
