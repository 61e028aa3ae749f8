package kshot

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"testing"

	"kshot/internal/obs"
	"kshot/internal/timing"
)

// chaosFleet is the fleet shape of the seeded chaos rollout: 32
// targets across 4 failure domains, so ~3% chaos faults one target.
func chaosFleet() []RolloutTarget {
	out := make([]RolloutTarget, 32)
	for i := range out {
		out[i] = RolloutTarget{
			ID:     fmt.Sprintf("fleet-%02d", i),
			Domain: fmt.Sprintf("rack-%d", i%4),
		}
	}
	return out
}

// syncFetchTarget pins a System's ApplyAll to one fetch worker, which
// fetches each batch inline, so seeded fault schedules replay at
// identical call indices — the chaos suite's determinism mode.
type syncFetchTarget struct{ *System }

func (s syncFetchTarget) ApplyAll(ctx context.Context, cves []string, opts ...ApplyOption) (*BatchReport, error) {
	return s.System.ApplyAll(ctx, cves, append(opts, WithFetchWorkers(1))...)
}

// runChaosRollout runs one seeded rollout of two CVEs across the
// chaos fleet with ~3% of targets refusing every SMI delivery, and
// returns the final accounting plus the persisted state bytes.
func runChaosRollout(t *testing.T, seed int64) (*Rollout, *RolloutResult, error, []byte) {
	t.Helper()
	ids := []string{"CVE-2016-0728", "CVE-2014-0196"}
	entries := make([]*CVE, len(ids))
	files := make(map[string]string, len(ids))
	for i, id := range ids {
		e, ok := LookupCVE(id)
		if !ok {
			t.Fatalf("missing %s", id)
		}
		entries[i] = e
		files[e.File] = e.Vuln
	}
	srv, err := NewPatchServer(WithTreeProvider(TreeProviderFor(entries...)))
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(srv.Close)
	for _, e := range entries {
		srv.RegisterPatch(e.SourcePatch())
	}

	provision := SystemProvisioner(srv.Addr(), WithExtraFiles(files))
	store := &RolloutMemStore{}
	roll, err := NewRollout(
		WithTargets(chaosFleet()),
		WithCVEs(ids...),
		WithProvisioner(func(ctx context.Context, tg RolloutTarget) (Patcher, error) {
			p, err := provision(ctx, tg)
			if err != nil {
				return nil, err
			}
			return syncFetchTarget{p.(*System)}, nil
		}),
		WithSeed(seed),
		WithFirstWaveFraction(0.125),
		WithStateStore(store),
		// Chaos: ~3% of the fleet refuses all SMI deliveries mid-patch.
		WithTargetFaults(FaultFraction(seed, 0.03, SMIFaults(64)...)),
		// Determinism mode: with syncFetchTarget's fetches, a virtual
		// wall clock on the rollout handle makes fault schedules and
		// timing replay on every target.
		WithRolloutObserver(&obs.Hooks{Wall: timing.NewFakeWall()}),
		// The faulted wave must roll back without stopping the rollout:
		// this test is about completion, not the failure budget.
		WithHaltThreshold(1),
	)
	if err != nil {
		t.Fatal(err)
	}
	res, runErr := roll.Run(context.Background())
	return roll, res, runErr, store.Bytes()
}

// TestRolloutChaosDeterministic is the fleet chaos acceptance run:
// with a seeded ~3% of targets refusing their SMIs mid-rollout, the
// rollout completes with exactly the faulted waves rolled back, every
// unaffected target patched, and a byte-identical persisted state on
// replaying the same seed.
func TestRolloutChaosDeterministic(t *testing.T) {
	if testing.Short() {
		t.Skip("chaos fleet rollout skipped in -short mode")
	}
	const seed = 3

	// The chaos schedule is a pure function of (seed, target ID):
	// recompute it to know which targets must fault.
	schedule := FaultFraction(seed, 0.03, SMIFaults(64)...)
	faulted := map[string]bool{}
	for _, tg := range chaosFleet() {
		if schedule(tg) != nil {
			faulted[tg.ID] = true
		}
	}
	if len(faulted) == 0 {
		t.Fatalf("seed %d faults no targets; pick a seed that exercises chaos", seed)
	}

	roll, res, runErr, stateBytes := runChaosRollout(t, seed)

	// Which waves carry a faulted target? Those — and only those —
	// must have rolled back.
	badWave := map[int]bool{}
	for _, w := range roll.Plan() {
		for _, id := range w.Targets {
			if faulted[id] {
				badWave[w.Index] = true
			}
		}
	}
	if badWave[0] {
		t.Fatalf("seed %d faults the canary; pick a seed whose faulted targets land in later waves", seed)
	}

	if !errors.Is(runErr, ErrWaveRolledBack) {
		t.Fatalf("Run err = %v, want ErrWaveRolledBack", runErr)
	}
	if errors.Is(runErr, ErrRolloutHalted) || res.Halted {
		t.Fatalf("rollout halted (err %v); want completion with rolled-back waves", runErr)
	}
	for _, wr := range res.Waves {
		if wr.RolledBack != badWave[wr.Index] {
			t.Errorf("wave %d rolledBack=%v, want %v (members %v, unhealthy %v)",
				wr.Index, wr.RolledBack, badWave[wr.Index], wr.Targets, wr.Unhealthy)
		}
	}

	// Per-target: members of faulted waves rolled back; every target
	// in an unaffected wave is patched.
	for _, ts := range res.Targets {
		if badWave[ts.Wave] {
			if ts.Status != RolloutRolledBack && ts.Status != RolloutFailed {
				t.Errorf("%s (faulted wave %d) status %v", ts.ID, ts.Wave, ts.Status)
			}
		} else if ts.Status != RolloutPatched {
			t.Errorf("%s (healthy wave %d) status %v, want patched", ts.ID, ts.Wave, ts.Status)
		}
		if faulted[ts.ID] && ts.Status == RolloutPatched {
			t.Errorf("faulted target %s ended patched", ts.ID)
		}
	}
	if res.Patched == 0 || res.Patched+res.Failed+res.RolledBack != 32 {
		t.Errorf("accounting patched=%d failed=%d rolledBack=%d of 32",
			res.Patched, res.Failed, res.RolledBack)
	}
	if len(stateBytes) == 0 {
		t.Fatal("no rollout state persisted")
	}

	// Replay: same seed, fresh fleet and server — the persisted state
	// must be byte-identical.
	_, res2, _, stateBytes2 := runChaosRollout(t, seed)
	if !bytes.Equal(stateBytes, stateBytes2) {
		t.Fatalf("replay persisted different state bytes (%d vs %d)",
			len(stateBytes), len(stateBytes2))
	}
	if res2.Patched != res.Patched || res2.RolledBack != res.RolledBack {
		t.Fatalf("replay accounting differs: %+v vs %+v", res2, res)
	}
}

// TestRolloutResumeAcrossCoordinators runs a real-system rollout,
// "crashes" the coordinator at a wave boundary, and hands the
// persisted state to a fresh coordinator: completed targets must not
// be re-patched, and the fleet must finish fully patched.
func TestRolloutResumeAcrossCoordinators(t *testing.T) {
	if testing.Short() {
		t.Skip("resume fleet rollout skipped in -short mode")
	}
	entry, ok := LookupCVE("CVE-2016-0728")
	if !ok {
		t.Fatal("missing CVE-2016-0728")
	}
	srv, err := NewPatchServer(WithTreeProvider(TreeProviderFor(entry)))
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()
	srv.RegisterPatch(entry.SourcePatch())

	fleet := chaosFleet()[:12]
	files := map[string]string{entry.File: entry.Vuln}
	path := t.TempDir() + "/rollout.state"

	build := func(progress func(WaveResult)) *Rollout {
		opts := []RolloutOption{
			WithTargets(fleet),
			WithCVEs(entry.CVE),
			WithProvisioner(SystemProvisioner(srv.Addr(), WithExtraFiles(files))),
			WithSeed(11),
			WithFirstWaveFraction(0.25),
			WithStateStore(NewRolloutFileStore(path)),
		}
		if progress != nil {
			opts = append(opts, WithProgress(progress))
		}
		roll, err := NewRollout(opts...)
		if err != nil {
			t.Fatal(err)
		}
		return roll
	}

	ctx, cancel := context.WithCancel(context.Background())
	r1 := build(func(wr WaveResult) {
		if wr.Index == 1 {
			cancel() // coordinator dies after wave 1 commits
		}
	})
	if _, err := r1.Run(ctx); !errors.Is(err, context.Canceled) {
		t.Fatalf("first coordinator err = %v, want context.Canceled", err)
	}
	st, err := NewRolloutFileStore(path).Load()
	if err != nil || st == nil {
		t.Fatalf("no persisted state after crash: %v", err)
	}
	already := map[string]bool{}
	for _, ts := range st.Targets {
		if ts.Status == RolloutPatched {
			already[ts.ID] = true
		}
	}
	if len(already) == 0 {
		t.Fatal("first coordinator patched nothing before the crash")
	}

	r2 := build(nil)
	var resumedSkips int
	res, err := func() (*RolloutResult, error) {
		// Count resume skips through the wave results.
		res, err := r2.Run(context.Background())
		for _, wr := range res.Waves {
			resumedSkips += wr.Resumed
		}
		return res, err
	}()
	if err != nil {
		t.Fatalf("resumed coordinator: %v", err)
	}
	if res.Patched != len(fleet) {
		t.Fatalf("resumed rollout patched %d/%d", res.Patched, len(fleet))
	}
	if resumedSkips != 0 {
		// NextWave advanced past completed waves entirely; members of
		// those waves are not revisited, so no per-member skips.
		t.Logf("resume skipped %d members in-wave", resumedSkips)
	}
}

// TestRolloutTemplateCacheFleet drives the orchestrator and a shared
// template cache together: one template boot serves the whole fleet,
// every target is a fork, and each one is patched in canary-first
// waves with a real virtual SMM pause.
func TestRolloutTemplateCacheFleet(t *testing.T) {
	if testing.Short() {
		t.Skip("fleet rollout skipped in -short mode")
	}
	entry := FigureCVEs()[0]
	srv, err := NewPatchServer(WithTreeProvider(TreeProviderFor(entry)))
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()
	srv.RegisterPatch(entry.SourcePatch())

	tc := NewTemplateCache()
	defer tc.Close()
	fleet := make([]RolloutTarget, 4)
	for i := range fleet {
		fleet[i] = RolloutTarget{ID: fmt.Sprintf("tc-%d", i), Domain: fmt.Sprintf("dom-%d", i%2)}
	}
	roll, err := NewRollout(
		WithTargets(fleet),
		WithCVEs(entry.CVE),
		WithProvisioner(SystemProvisioner(srv.Addr(),
			WithExtraFiles(map[string]string{entry.File: entry.Vuln}),
			WithTemplateCache(tc))),
		WithSeed(1),
		WithWaveConcurrency(2),
	)
	if err != nil {
		t.Fatal(err)
	}
	res, err := roll.Run(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	if res.Patched != 4 || res.Failed != 0 || res.RolledBack != 0 {
		t.Errorf("patched=%d failed=%d rolledBack=%d, want 4/0/0",
			res.Patched, res.Failed, res.RolledBack)
	}
	if len(res.Waves) < 2 {
		t.Errorf("want at least canary + one wave, got %d", len(res.Waves))
	}
	for _, ts := range res.Targets {
		if ts.Pause <= 0 {
			t.Errorf("%s: virtual pause %v, want > 0", ts.ID, ts.Pause)
		}
	}
	if st := tc.Stats(); st.Misses != 1 || st.Forks != 4 {
		t.Errorf("template cache misses=%d forks=%d, want 1 and 4", st.Misses, st.Forks)
	}
}
