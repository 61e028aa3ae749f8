// Package orchestrator is KShot's fleet rollout coordinator: one
// process driving a CVE batch across N patch targets in staged waves
// — canary → first percentage wave → exponentially widening waves —
// the deployment inverse of the patch server's many-clients story.
//
// Each wave is health-gated on the targets' own observability
// metrics: a target is unhealthy if its run errored, any member of
// the batch failed to land, its virtual SMM pause blew the configured
// budget, or its mean per-patch downtime regressed past the canary
// baseline. A wave that fails the gate is rolled back in place —
// every applied patch on every member unwound in reverse order — and
// the rollout continues with the remaining waves unless the canary
// itself failed or the fleet-wide failure budget is exhausted, which
// halt it with ErrRolloutHalted.
//
// Scheduling is failure-domain aware: targets are tagged with a
// domain and no wave ever carries a quorum of any one domain, so a
// misbehaving wave cannot take a domain below majority.
//
// The whole rollout is deterministic from its seed: wave composition,
// chaos schedules (WithTargetFaults + FaultFraction), and the
// persisted state bytes all replay exactly. State is saved as a
// versioned, checksummed record (EncodeState) through a Store once a
// wave's targets have run and again at its health gate, so a crashed
// coordinator resumes without re-patching completed targets.
package orchestrator

import (
	"context"
	"errors"
	"fmt"
	"sort"
	"strings"
	"sync"
	"time"

	"kshot/internal/core"
	"kshot/internal/obs"
)

// Target is one fleet member: a machine the rollout will patch,
// tagged with its failure domain (rack, AZ, shard — any blast-radius
// grouping the wave scheduler must respect).
type Target struct {
	ID     string
	Domain string
}

// Patcher is the per-target patching surface the rollout drives.
// *core.System (kshot.System) implements it; tests substitute fakes.
type Patcher interface {
	ApplyAll(ctx context.Context, cves []string, opts ...core.ApplyOption) (*core.BatchReport, error)
	Rollback(ctx context.Context, cve string) (*core.Report, error)
	SetObserver(*obs.Hooks)
	Close()
}

// Provisioner turns a Target into a live Patcher — ordinarily by
// booting a kshot.System pointed at the shared patch server. It is
// called lazily, when the target's wave starts, and the rollout
// closes every Patcher it provisions.
type Provisioner func(ctx context.Context, t Target) (Patcher, error)

// Typed failure classes for Run; branch with errors.Is.
var (
	// ErrWaveRolledBack classifies a wave that failed its health gate
	// and was rolled back. Run returns it (possibly joined across
	// waves) even when the rollout otherwise completed.
	ErrWaveRolledBack = errors.New("orchestrator: wave failed health gate and was rolled back")

	// ErrRolloutHalted classifies an early stop: the canary wave
	// rolled back, or fleet-wide failures exceeded the halt
	// threshold. A halted rollout's error also matches
	// ErrWaveRolledBack when a rollback caused the halt.
	ErrRolloutHalted = errors.New("orchestrator: rollout halted")

	// ErrStateMismatch reports that a state store holds a different
	// rollout (other seed, CVE batch, or fleet) than the one being
	// constructed.
	ErrStateMismatch = errors.New("orchestrator: persisted state does not match rollout")
)

// WaveError reports one rolled-back wave. It matches ErrWaveRolledBack
// under errors.Is; retrieve it with errors.As for the members.
type WaveError struct {
	Wave      int
	Unhealthy []string // unhealthy target IDs, sorted
}

// Error implements the error interface.
func (e *WaveError) Error() string {
	return fmt.Sprintf("orchestrator: wave %d rolled back (unhealthy: %s)",
		e.Wave, strings.Join(e.Unhealthy, ", "))
}

// Is makes errors.Is(err, ErrWaveRolledBack) hold.
func (e *WaveError) Is(target error) bool { return target == ErrWaveRolledBack }

// HaltError reports an early stop of the whole rollout. It matches
// ErrRolloutHalted under errors.Is and unwraps to the wave error that
// tripped it.
type HaltError struct {
	Wave   int
	Reason string
	Err    error
}

// Error implements the error interface.
func (e *HaltError) Error() string {
	return fmt.Sprintf("orchestrator: halted at wave %d: %s", e.Wave, e.Reason)
}

// Is makes errors.Is(err, ErrRolloutHalted) hold.
func (e *HaltError) Is(target error) bool { return target == ErrRolloutHalted }

// Unwrap exposes the underlying wave error, so a halted rollout also
// matches ErrWaveRolledBack when a rollback caused the halt.
func (e *HaltError) Unwrap() error { return e.Err }

// WaveResult is one wave's gated outcome.
type WaveResult struct {
	Index        int
	Targets      []string
	Unhealthy    []string // sorted; empty when the wave passed
	RolledBack   bool
	MeanDowntime time.Duration // mean per-patch downtime across members
	Resumed      int           // members skipped because persisted state already had them
}

// Result is the rollout's final accounting.
type Result struct {
	// Targets holds final per-target states, sorted by ID.
	Targets []TargetState

	// Waves holds per-wave outcomes for the waves that ran.
	Waves []WaveResult

	// Patched, Failed, and RolledBack count targets by final status.
	Patched, Failed, RolledBack int

	// Baseline is the canary wave's mean per-patch downtime.
	Baseline time.Duration

	// Halted reports an early stop (see ErrRolloutHalted).
	Halted bool
}

// Rollout is a configured staged rollout. Build with New, drive with
// Run.
type Rollout struct {
	cfg config

	mu    sync.Mutex
	st    *State
	waves []WaveResult
	ran   bool
}

// New validates the options, fixes the wave plan, and — when a state
// store already holds this rollout — adopts the persisted state for
// resumption.
func New(opts ...Option) (*Rollout, error) {
	cfg := defaultConfig()
	for _, o := range opts {
		if o == nil {
			return nil, optErr("Option", "nil option")
		}
		if err := o(&cfg); err != nil {
			return nil, err
		}
	}
	if cfg.targets == nil {
		return nil, optErr("WithTargets", "required: no fleet configured")
	}
	if cfg.cves == nil {
		return nil, optErr("WithCVEs", "required: no CVE batch configured")
	}
	if cfg.provision == nil {
		return nil, optErr("WithProvisioner", "required: no provisioner configured")
	}
	if cfg.canarySize > len(cfg.targets) {
		return nil, optErr("WithCanarySize", "canary of %d exceeds fleet of %d",
			cfg.canarySize, len(cfg.targets))
	}

	targets := append([]Target(nil), cfg.targets...)
	sort.Slice(targets, func(i, j int) bool { return targets[i].ID < targets[j].ID })
	cfg.targets = targets

	r := &Rollout{cfg: cfg}
	if cfg.store != nil {
		prior, err := cfg.store.Load()
		if err != nil {
			return nil, err
		}
		if prior != nil {
			if err := r.checkResume(prior); err != nil {
				return nil, err
			}
			prior.Halted = false // an operator resuming has intervened
			r.st = prior
			return r, nil
		}
	}

	st := &State{
		Seed:  cfg.seed,
		CVEs:  append([]string(nil), cfg.cves...),
		Waves: planWaves(targets, cfg.canarySize, cfg.firstFrac, cfg.growth, cfg.seed),
	}
	st.Targets = make([]TargetState, len(targets))
	waveOf := make(map[string]int, len(targets))
	for _, w := range st.Waves {
		for _, id := range w.Targets {
			waveOf[id] = w.Index
		}
	}
	for i, t := range targets {
		st.Targets[i] = TargetState{ID: t.ID, Domain: t.Domain, Wave: waveOf[t.ID]}
	}
	r.st = st
	return r, nil
}

// checkResume verifies that persisted state belongs to this rollout.
func (r *Rollout) checkResume(prior *State) error {
	if prior.Seed != r.cfg.seed {
		return fmt.Errorf("%w: seed %d vs %d", ErrStateMismatch, prior.Seed, r.cfg.seed)
	}
	if len(prior.CVEs) != len(r.cfg.cves) {
		return fmt.Errorf("%w: CVE batch differs", ErrStateMismatch)
	}
	for i, cve := range prior.CVEs {
		if cve != r.cfg.cves[i] {
			return fmt.Errorf("%w: CVE batch differs at %d (%s vs %s)",
				ErrStateMismatch, i, cve, r.cfg.cves[i])
		}
	}
	if len(prior.Targets) != len(r.cfg.targets) {
		return fmt.Errorf("%w: fleet size %d vs %d",
			ErrStateMismatch, len(prior.Targets), len(r.cfg.targets))
	}
	for i, ts := range prior.Targets {
		t := r.cfg.targets[i]
		if ts.ID != t.ID || ts.Domain != t.Domain {
			return fmt.Errorf("%w: target %d is %s/%s, rollout has %s/%s",
				ErrStateMismatch, i, ts.ID, ts.Domain, t.ID, t.Domain)
		}
	}
	return nil
}

// Plan returns the fixed wave schedule.
func (r *Rollout) Plan() []Wave {
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.st.clone().Waves
}

// persist saves the current state through the store, if any.
// Callers hold r.mu.
func (r *Rollout) persistLocked() error {
	if r.cfg.store == nil {
		return nil
	}
	return r.cfg.store.Save(r.st)
}

// targetOutcome is what one target's run produced, before gating.
type targetOutcome struct {
	id       string
	applied  []string
	failures int
	pause    time.Duration
	downtime time.Duration
	err      error
}

// Run drives the rollout to completion (or halt). It returns the
// final accounting alongside the classification error: nil when every
// wave passed, an error matching ErrWaveRolledBack when one or more
// waves were rolled back, additionally matching ErrRolloutHalted when
// the rollout stopped early. Context cancellation aborts between
// deliveries with the state persisted, so a later Run resumes.
func (r *Rollout) Run(ctx context.Context) (*Result, error) {
	r.mu.Lock()
	if r.ran {
		r.mu.Unlock()
		return nil, errors.New("orchestrator: Run called twice; build a new Rollout (resume goes through the state store)")
	}
	r.ran = true
	r.mu.Unlock()

	var waveErrs []error
	for w := r.st.NextWave; w < len(r.st.Waves); w++ {
		if err := ctx.Err(); err != nil {
			return r.result(), err
		}
		wave := r.st.Waves[w]
		wr, err := r.runWave(ctx, wave)
		if err != nil {
			// Cancellation mid-wave: state already persisted per
			// target; the wave gate has not run, so NextWave stays.
			return r.result(), err
		}

		r.mu.Lock()
		r.waves = append(r.waves, wr)
		r.st.NextWave = w + 1
		if wr.RolledBack {
			waveErrs = append(waveErrs, &WaveError{Wave: w, Unhealthy: wr.Unhealthy})
		} else if w == 0 {
			r.st.Baseline = wr.MeanDowntime
			r.cfg.obs.ObserveDur(obs.HistRolloutBaseline, wr.MeanDowntime)
		}
		// One halt decision per wave gate. The failure budget protects
		// waves that have not run yet: a rolled-back wave or a passed
		// one (e.g. under WithUnhealthyTolerance) can tip the fleetwide
		// fraction over it, but once no waves remain there is nothing
		// left to halt.
		halt := ""
		if wr.RolledBack && w == 0 {
			halt = "canary wave rolled back"
		} else if frac := r.failedFractionLocked(); frac > r.cfg.haltFrac && w+1 < len(r.st.Waves) {
			halt = fmt.Sprintf("%.0f%% of the fleet failed or rolled back (budget %.0f%%)",
				frac*100, r.cfg.haltFrac*100)
		}
		if halt != "" {
			r.st.Halted = true
		}
		perr := r.persistLocked()
		r.mu.Unlock()
		r.notify(wr)
		if perr != nil {
			return r.result(), perr
		}
		if halt != "" {
			// A rolled-back wave halts on its own error; a passed one
			// on the waves that rolled back before it.
			haltErr := errors.Join(waveErrs...)
			if wr.RolledBack {
				haltErr = waveErrs[len(waveErrs)-1]
			}
			return r.result(), &HaltError{Wave: w, Reason: halt, Err: haltErr}
		}
	}
	return r.result(), errors.Join(waveErrs...)
}

// notify invokes the progress callback outside the state lock.
func (r *Rollout) notify(wr WaveResult) {
	if r.cfg.progress != nil {
		r.cfg.progress(wr)
	}
}

// failedFractionLocked is the share of the fleet in a terminal
// non-patched state. Callers hold r.mu.
func (r *Rollout) failedFractionLocked() float64 {
	bad := 0
	for _, ts := range r.st.Targets {
		if ts.Status == StatusFailed || ts.Status == StatusRolledBack {
			bad++
		}
	}
	return float64(bad) / float64(len(r.st.Targets))
}

// runWave patches every pending member of one wave (bounded
// concurrency), gates the wave's health, rolls it back if the gate
// fails, and records every member's terminal status. A non-nil error
// means the run was cancelled, not that the wave was unhealthy.
func (r *Rollout) runWave(ctx context.Context, wave Wave) (WaveResult, error) {
	wr := WaveResult{Index: wave.Index, Targets: wave.Targets}

	// Resume: members already terminal keep their recorded outcome
	// and are not re-patched; they still count for the health gate.
	var pending []Target
	r.mu.Lock()
	for _, id := range wave.Targets {
		ts := r.st.target(id)
		if ts.Status == StatusPending {
			pending = append(pending, Target{ID: ts.ID, Domain: ts.Domain})
		} else {
			wr.Resumed++
			r.cfg.obs.Count(obs.CtrRolloutResumeSkips, 1)
		}
	}
	r.mu.Unlock()

	// Patch the pending members, keeping their Patchers alive until
	// the gate decides whether the wave rolls back.
	patchers := make(map[string]Patcher, len(pending))
	var pmu sync.Mutex
	defer func() {
		pmu.Lock()
		defer pmu.Unlock()
		for _, p := range patchers {
			p.Close()
		}
	}()

	sem := make(chan struct{}, r.cfg.concurrency)
	outcomes := make(chan targetOutcome, len(pending))
	var wg sync.WaitGroup
	for _, t := range pending {
		wg.Add(1)
		go func(t Target) {
			defer wg.Done()
			sem <- struct{}{}
			defer func() { <-sem }()
			out := r.runTarget(ctx, t, &pmu, patchers)
			outcomes <- out
		}(t)
	}
	wg.Wait()
	close(outcomes)

	var cancelled error
	r.mu.Lock()
	for out := range outcomes {
		ts := r.st.target(out.id)
		ts.Applied = out.applied
		ts.Failures = out.failures
		ts.Pause = out.pause
		ts.Downtime = out.downtime
		if out.err != nil {
			if errors.Is(out.err, context.Canceled) || errors.Is(out.err, context.DeadlineExceeded) {
				cancelled = out.err
				continue
			}
			ts.Err = out.err.Error()
		}
		r.cfg.obs.ObserveDur(obs.HistTargetPause, out.pause)
		// Status stays Pending until the gate; persist the raw outcome
		// so a crash before gating resumes with the work retained.
	}
	perr := r.persistLocked()
	r.mu.Unlock()
	if cancelled != nil {
		return wr, cancelled
	}
	if perr != nil {
		return wr, perr
	}

	// Health gate over every member (recorded + fresh).
	r.mu.Lock()
	defer r.mu.Unlock()
	var downtimes []time.Duration
	for _, id := range wave.Targets {
		ts := r.st.target(id)
		if r.unhealthyLocked(ts) {
			wr.Unhealthy = append(wr.Unhealthy, id)
		}
		if ts.Downtime > 0 {
			downtimes = append(downtimes, ts.Downtime)
		}
	}
	sort.Strings(wr.Unhealthy)
	if len(downtimes) > 0 {
		var sum time.Duration
		for _, d := range downtimes {
			sum += d
		}
		wr.MeanDowntime = sum / time.Duration(len(downtimes))
	}

	tolerated := int(r.cfg.unhealthyTol * float64(len(wave.Targets)))
	if len(wr.Unhealthy) > tolerated {
		wr.RolledBack = true
		r.rollbackWaveLocked(ctx, wave, patchers, &pmu)
		r.cfg.obs.Count(obs.CtrRolloutWavesRolledBack, 1)
	} else {
		for _, id := range wave.Targets {
			ts := r.st.target(id)
			if ts.Status != StatusPending {
				continue // resumed member keeps its recorded status
			}
			if ts.Err != "" && len(ts.Applied) == 0 {
				ts.Status = StatusFailed
				r.cfg.obs.Count(obs.CtrRolloutFailed, 1)
				continue
			}
			ts.Status = StatusPatched
			r.cfg.obs.Count(obs.CtrRolloutPatched, 1)
		}
	}
	r.cfg.obs.Count(obs.CtrRolloutWaves, 1)
	return wr, nil
}

// unhealthyLocked applies the health gate to one recorded target.
func (r *Rollout) unhealthyLocked(ts *TargetState) bool {
	if ts.Err != "" || ts.Failures > 0 {
		return true
	}
	if ts.Status == StatusFailed || ts.Status == StatusRolledBack {
		return true
	}
	if r.cfg.pauseBudget > 0 && ts.Pause > r.cfg.pauseBudget {
		return true
	}
	if r.cfg.regressFactor > 0 && r.st.Baseline > 0 &&
		ts.Downtime > time.Duration(float64(r.st.Baseline)*r.cfg.regressFactor) {
		return true
	}
	return false
}

// rollbackWaveLocked unwinds every member of a failed wave: each
// applied CVE rolled back in reverse order on the patchers still held
// open for exactly this purpose. A target's unwind stops at its first
// failed rollback, since SMM refuses every older one out of order: the
// target is recorded failed, with that CVE and every older one still
// live. Callers hold r.mu.
func (r *Rollout) rollbackWaveLocked(ctx context.Context, wave Wave, patchers map[string]Patcher, pmu *sync.Mutex) {
	for _, id := range wave.Targets {
		ts := r.st.target(id)
		if ts.Status != StatusPending {
			continue // resumed terminal member; nothing held open
		}
		pmu.Lock()
		p := patchers[id]
		pmu.Unlock()
		stuck := false
		for i := len(ts.Applied) - 1; p != nil && i >= 0; i-- {
			if _, err := p.Rollback(ctx, ts.Applied[i]); err != nil {
				ts.Err, stuck = fmt.Sprintf("rollback %s: %v", ts.Applied[i], err), true
				break
			}
		}
		if stuck || (len(ts.Applied) == 0 && ts.Err != "") {
			ts.Status = StatusFailed
			r.cfg.obs.Count(obs.CtrRolloutFailed, 1)
			continue
		}
		ts.Status = StatusRolledBack
		r.cfg.obs.Count(obs.CtrRolloutRolledBack, 1)
	}
}

// runTarget provisions and patches one target, returning its raw
// outcome. The provisioned Patcher is parked in patchers for the
// wave-level rollback; runWave closes it.
func (r *Rollout) runTarget(ctx context.Context, t Target, pmu *sync.Mutex, patchers map[string]Patcher) targetOutcome {
	out := targetOutcome{id: t.ID}
	p, err := r.cfg.provision(ctx, t)
	if err != nil {
		out.err = fmt.Errorf("provision %s: %w", t.ID, err)
		return out
	}
	pmu.Lock()
	patchers[t.ID] = p
	pmu.Unlock()

	// Each target's handle runs on the rollout handle's clock.
	hooks := &obs.Hooks{Metrics: obs.NewMetrics(), Wall: r.cfg.obs.Clock()}
	if r.cfg.faults != nil {
		hooks.Faults = r.cfg.faults(t)
	}
	p.SetObserver(hooks)

	rep, runErr := p.ApplyAll(ctx, r.cfg.cves)
	if rep != nil {
		var downtime time.Duration
		for _, pr := range rep.Reports {
			out.applied = append(out.applied, pr.ID)
			downtime += pr.Stages.SMMTotal()
		}
		if len(rep.Reports) > 0 {
			out.downtime = downtime / time.Duration(len(rep.Reports))
		}
		out.failures = len(rep.Failed)
		out.pause = rep.SMMPause
	}
	out.err = runErr
	return out
}

// result assembles the final accounting. Safe to call at any point;
// Run calls it on every exit path.
func (r *Rollout) result() *Result {
	r.mu.Lock()
	defer r.mu.Unlock()
	st := r.st.clone()
	res := &Result{
		Targets:  st.Targets,
		Waves:    append([]WaveResult(nil), r.waves...),
		Baseline: st.Baseline,
		Halted:   st.Halted,
	}
	for _, ts := range st.Targets {
		switch ts.Status {
		case StatusPatched:
			res.Patched++
		case StatusFailed:
			res.Failed++
		case StatusRolledBack:
			res.RolledBack++
		}
	}
	return res
}
