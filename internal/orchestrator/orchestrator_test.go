package orchestrator

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"reflect"
	"slices"
	"sort"
	"sync"
	"testing"
	"time"

	"kshot/internal/core"
	"kshot/internal/obs"
	"kshot/internal/options"
	"kshot/internal/timing"
)

// fakePatcher implements Patcher without booting a machine. Each
// applied patch records downtimeUS into the observer the rollout
// installs, so the health gate reads it back the same way it reads a
// real system's metrics.
type fakePatcher struct {
	applyErr   error
	failCVEs   map[string]error
	downtimeUS float64
	pause      time.Duration

	mu        sync.Mutex
	hooks     *obs.Hooks
	rollbacks []string
	closed    bool
}

func (f *fakePatcher) ApplyAll(ctx context.Context, cves []string, opts ...core.ApplyOption) (*core.BatchReport, error) {
	rep := &core.BatchReport{Requested: len(cves), Failed: map[string]error{}, SMMPause: f.pause}
	if f.applyErr != nil {
		// A run-level failure lands nothing, like a dead server dial.
		return rep, f.applyErr
	}
	for _, cve := range cves {
		if err, bad := f.failCVEs[cve]; bad {
			rep.Failed[cve] = err
			continue
		}
		rep.Reports = append(rep.Reports, &core.Report{ID: cve})
		f.mu.Lock()
		h := f.hooks
		f.mu.Unlock()
		h.Observe(obs.HistDowntime, f.downtimeUS)
	}
	return rep, nil
}

func (f *fakePatcher) Rollback(ctx context.Context, cve string) (*core.Report, error) {
	f.mu.Lock()
	f.rollbacks = append(f.rollbacks, cve)
	f.mu.Unlock()
	return &core.Report{ID: cve}, nil
}

func (f *fakePatcher) SetObserver(h *obs.Hooks) {
	f.mu.Lock()
	f.hooks = h
	f.mu.Unlock()
}

func (f *fakePatcher) SetWallClock(timing.WallClock) {}

func (f *fakePatcher) Close() {
	f.mu.Lock()
	f.closed = true
	f.mu.Unlock()
}

// fakeFleet provisions fakePatchers, remembering every provisioned
// target and handing out per-target overrides.
type fakeFleet struct {
	mu          sync.Mutex
	provisioned []string
	patchers    map[string]*fakePatcher
	tweak       func(id string, p *fakePatcher)
}

func newFakeFleet(tweak func(id string, p *fakePatcher)) *fakeFleet {
	return &fakeFleet{patchers: make(map[string]*fakePatcher), tweak: tweak}
}

func (ff *fakeFleet) provision(ctx context.Context, t Target) (Patcher, error) {
	p := &fakePatcher{downtimeUS: 100}
	if ff.tweak != nil {
		ff.tweak(t.ID, p)
	}
	ff.mu.Lock()
	ff.provisioned = append(ff.provisioned, t.ID)
	ff.patchers[t.ID] = p
	ff.mu.Unlock()
	return p, nil
}

func (ff *fakeFleet) provisionedSet() map[string]bool {
	ff.mu.Lock()
	defer ff.mu.Unlock()
	out := make(map[string]bool, len(ff.provisioned))
	for _, id := range ff.provisioned {
		out[id] = true
	}
	return out
}

func fleetTargets(n int, domains int) []Target {
	out := make([]Target, n)
	for i := range out {
		out[i] = Target{
			ID:     fmt.Sprintf("node-%02d", i),
			Domain: fmt.Sprintf("rack-%d", i%domains),
		}
	}
	return out
}

func statusOf(res *Result, id string) Status {
	for _, ts := range res.Targets {
		if ts.ID == id {
			return ts.Status
		}
	}
	return Status(255)
}

func TestPlanWavesCoversFleetOnce(t *testing.T) {
	targets := fleetTargets(37, 5)
	waves := planWaves(targets, 1, 0.05, 2.0, 42)

	seen := make(map[string]int)
	for _, w := range waves {
		if len(w.Targets) == 0 {
			t.Fatalf("wave %d is empty", w.Index)
		}
		if !sort.StringsAreSorted(w.Targets) {
			t.Fatalf("wave %d members not sorted: %v", w.Index, w.Targets)
		}
		for _, id := range w.Targets {
			seen[id]++
		}
	}
	if len(seen) != len(targets) {
		t.Fatalf("plan covers %d targets, fleet has %d", len(seen), len(targets))
	}
	for id, n := range seen {
		if n != 1 {
			t.Fatalf("target %s scheduled %d times", id, n)
		}
	}
	if got := len(waves[0].Targets); got != 1 {
		t.Fatalf("canary wave has %d targets, want 1", got)
	}
	// ceil(37 * 0.05) = 2.
	if got := len(waves[1].Targets); got != 2 {
		t.Fatalf("first ramp wave has %d targets, want 2", got)
	}
}

func TestPlanWavesRespectsDomainQuorum(t *testing.T) {
	// Two domains of 6: a wave may carry at most 3 of either (< quorum
	// of 4).
	targets := fleetTargets(12, 2)
	waves := planWaves(targets, 2, 0.25, 2.0, 7)

	domain := make(map[string]string, len(targets))
	for _, tg := range targets {
		domain[tg.ID] = tg.Domain
	}
	for _, w := range waves {
		perDomain := make(map[string]int)
		for _, id := range w.Targets {
			perDomain[domain[id]]++
		}
		for d, n := range perDomain {
			if n > 3 {
				t.Fatalf("wave %d carries %d of domain %s (cap 3)", w.Index, n, d)
			}
		}
	}
}

func TestPlanWavesDeterministicPerSeed(t *testing.T) {
	targets := fleetTargets(20, 4)
	a := planWaves(targets, 1, 0.1, 2.0, 99)
	b := planWaves(targets, 1, 0.1, 2.0, 99)
	if fmt.Sprint(a) != fmt.Sprint(b) {
		t.Fatalf("same seed produced different plans:\n%v\n%v", a, b)
	}
	c := planWaves(targets, 1, 0.1, 2.0, 100)
	if fmt.Sprint(a) == fmt.Sprint(c) {
		t.Fatalf("different seeds produced identical plans (possible but wildly unlikely)")
	}
}

func rollout(t *testing.T, ff *fakeFleet, extra ...Option) *Rollout {
	t.Helper()
	opts := append([]Option{
		WithTargets(fleetTargets(16, 4)),
		WithCVEs("CVE-2016-0728", "CVE-2017-7184"),
		WithProvisioner(ff.provision),
		WithFirstWaveFraction(0.125),
		WithSeed(1),
	}, extra...)
	r, err := New(opts...)
	if err != nil {
		t.Fatalf("New: %v", err)
	}
	return r
}

func TestRunAllHealthy(t *testing.T) {
	ff := newFakeFleet(nil)
	r := rollout(t, ff)
	res, err := r.Run(context.Background())
	if err != nil {
		t.Fatalf("Run: %v", err)
	}
	if res.Patched != 16 || res.Failed != 0 || res.RolledBack != 0 {
		t.Fatalf("got patched=%d failed=%d rolledback=%d", res.Patched, res.Failed, res.RolledBack)
	}
	if res.Baseline <= 0 {
		t.Fatalf("no canary baseline recorded")
	}
	for id, p := range ff.patchers {
		p.mu.Lock()
		closed := p.closed
		p.mu.Unlock()
		if !closed {
			t.Fatalf("patcher %s not closed", id)
		}
	}
}

func TestWaveRollbackReversesAppliedOrder(t *testing.T) {
	// node-00 fails its second CVE. Whatever wave carries it rolls
	// back; every wave-mate unwinds its applied patches in reverse.
	ff := newFakeFleet(func(id string, p *fakePatcher) {
		if id == "node-00" {
			p.failCVEs = map[string]error{"CVE-2017-7184": errors.New("boom")}
		}
	})
	// Halt threshold 1 ≈ disabled: even a large rolled-back wave must
	// not stop the rest of the rollout in this test.
	r := rollout(t, ff, WithHaltThreshold(1))

	var badWave Wave
	for _, w := range r.Plan() {
		for _, id := range w.Targets {
			if id == "node-00" {
				badWave = w
			}
		}
	}
	if badWave.Index == 0 {
		t.Skip("seed put node-00 in the canary; covered by TestCanaryRollbackHalts")
	}

	res, err := r.Run(context.Background())
	if !errors.Is(err, ErrWaveRolledBack) {
		t.Fatalf("err = %v, want ErrWaveRolledBack", err)
	}
	var we *WaveError
	if !errors.As(err, &we) {
		t.Fatalf("err %v does not unwrap to *WaveError", err)
	}
	if we.Wave != badWave.Index {
		t.Fatalf("WaveError.Wave = %d, want %d", we.Wave, badWave.Index)
	}
	if len(we.Unhealthy) != 1 || we.Unhealthy[0] != "node-00" {
		t.Fatalf("Unhealthy = %v, want [node-00]", we.Unhealthy)
	}

	for _, id := range badWave.Targets {
		if got := statusOf(res, id); got != StatusRolledBack {
			t.Fatalf("wave member %s status %v, want rolled-back", id, got)
		}
		p := ff.patchers[id]
		want := []string{"CVE-2017-7184", "CVE-2016-0728"}
		if id == "node-00" {
			want = []string{"CVE-2016-0728"} // its second CVE never landed
		}
		if fmt.Sprint(p.rollbacks) != fmt.Sprint(want) {
			t.Fatalf("%s rollbacks = %v, want %v (reverse apply order)", id, p.rollbacks, want)
		}
	}
	// Every target outside the bad wave still patched.
	if res.RolledBack != len(badWave.Targets) {
		t.Fatalf("RolledBack = %d, want %d", res.RolledBack, len(badWave.Targets))
	}
	if res.Patched != 16-len(badWave.Targets) {
		t.Fatalf("Patched = %d, want %d", res.Patched, 16-len(badWave.Targets))
	}
}

func TestCanaryRollbackHalts(t *testing.T) {
	ff := newFakeFleet(func(id string, p *fakePatcher) {
		p.applyErr = errors.New("patch refused")
	})
	r := rollout(t, ff)
	res, err := r.Run(context.Background())
	if !errors.Is(err, ErrRolloutHalted) {
		t.Fatalf("err = %v, want ErrRolloutHalted", err)
	}
	if !errors.Is(err, ErrWaveRolledBack) {
		t.Fatalf("halt err %v should also match ErrWaveRolledBack", err)
	}
	var he *HaltError
	if !errors.As(err, &he) || he.Wave != 0 {
		t.Fatalf("err %v should carry *HaltError for wave 0", err)
	}
	if !res.Halted {
		t.Fatalf("Result.Halted = false after halt")
	}
	// Only the canary ran; the rest of the fleet is untouched.
	if got := res.Patched + res.Failed + res.RolledBack; got != 1 {
		t.Fatalf("%d targets reached terminal state, want 1 (canary only)", got)
	}
}

func TestHaltThresholdStopsFleetwideFailure(t *testing.T) {
	// Everything outside the canary fails: the canary passes (so we
	// exercise the threshold halt, not the canary halt), then failed
	// fraction climbs past the 25% budget. Provisioning is lazy, so
	// the healthy set can be filled in from the plan before Run.
	healthy := map[string]bool{}
	ff := newFakeFleet(func(id string, p *fakePatcher) {
		if !healthy[id] {
			p.applyErr = errors.New("patch refused")
		}
	})
	r := rollout(t, ff)
	for _, id := range r.Plan()[0].Targets {
		healthy[id] = true
	}
	res, err := r.Run(context.Background())
	if !errors.Is(err, ErrRolloutHalted) {
		t.Fatalf("err = %v, want ErrRolloutHalted", err)
	}
	if !res.Halted {
		t.Fatalf("Result.Halted = false")
	}
	// The rollout stopped early: some targets never reached a wave.
	pending := 0
	for _, ts := range res.Targets {
		if ts.Status == StatusPending {
			pending++
		}
	}
	if pending == 0 {
		t.Fatalf("halt left no pending targets; rollout ran to completion")
	}
}

func TestRegressionGateRollsBackSlowWave(t *testing.T) {
	// Canary and early waves run at 100µs per patch; node-09's machine
	// regresses to 900µs — past 3× baseline — so its wave rolls back.
	ff := newFakeFleet(func(id string, p *fakePatcher) {
		if id == "node-09" {
			p.downtimeUS = 900
		}
	})
	r := rollout(t, ff)
	var badWave int
	for _, w := range r.Plan() {
		for _, id := range w.Targets {
			if id == "node-09" {
				badWave = w.Index
			}
		}
	}
	if badWave == 0 {
		t.Skip("seed put node-09 in the canary; regression gate needs a baseline")
	}
	res, err := r.Run(context.Background())
	if !errors.Is(err, ErrWaveRolledBack) {
		t.Fatalf("err = %v, want ErrWaveRolledBack", err)
	}
	var we *WaveError
	if !errors.As(err, &we) {
		t.Fatalf("err %v does not unwrap to *WaveError", err)
	}
	if we.Wave != badWave || len(we.Unhealthy) != 1 || we.Unhealthy[0] != "node-09" {
		t.Fatalf("WaveError = %+v, want wave %d unhealthy [node-09]", we, badWave)
	}
	if got := statusOf(res, "node-09"); got != StatusRolledBack {
		t.Fatalf("node-09 status %v, want rolled-back", got)
	}
}

func TestPauseBudgetGate(t *testing.T) {
	ff := newFakeFleet(func(id string, p *fakePatcher) {
		p.pause = 50 * time.Microsecond
		if id == "node-05" {
			p.pause = 5 * time.Millisecond
		}
	})
	r := rollout(t, ff, WithPauseBudget(time.Millisecond))
	var badWave int
	for _, w := range r.Plan() {
		for _, id := range w.Targets {
			if id == "node-05" {
				badWave = w.Index
			}
		}
	}
	if badWave == 0 {
		t.Skip("seed put node-05 in the canary")
	}
	_, err := r.Run(context.Background())
	var we *WaveError
	if !errors.As(err, &we) || len(we.Unhealthy) != 1 || we.Unhealthy[0] != "node-05" {
		t.Fatalf("err = %v, want wave error with unhealthy [node-05]", err)
	}
}

func TestUnhealthyToleranceAbsorbsFailures(t *testing.T) {
	ff := newFakeFleet(func(id string, p *fakePatcher) {
		if id == "node-07" {
			p.applyErr = errors.New("flaky")
		}
	})
	r := rollout(t, ff, WithUnhealthyTolerance(0.9))
	res, err := r.Run(context.Background())
	if err != nil {
		t.Fatalf("Run: %v (tolerance should absorb the one bad target)", err)
	}
	if got := statusOf(res, "node-07"); got != StatusFailed {
		t.Fatalf("node-07 status %v, want failed", got)
	}
	if res.Patched != 15 {
		t.Fatalf("Patched = %d, want 15", res.Patched)
	}
}

func TestResumeSkipsCompletedWaves(t *testing.T) {
	store := &MemStore{}
	ctx, cancel := context.WithCancel(context.Background())

	// First coordinator: cancel after the gate of wave 1 — a crash at
	// a wave boundary.
	ff1 := newFakeFleet(nil)
	r1 := rollout(t, ff1, WithStateStore(store), WithProgress(func(wr WaveResult) {
		if wr.Index == 1 {
			cancel()
		}
	}))
	_, err := r1.Run(ctx)
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("first run err = %v, want context.Canceled", err)
	}
	done := ff1.provisionedSet()
	if len(done) == 0 {
		t.Fatalf("first run patched nothing")
	}

	// Second coordinator: same options, fresh provisioner. It must not
	// re-provision (re-patch) anything the first run completed.
	ff2 := newFakeFleet(nil)
	r2 := rollout(t, ff2, WithStateStore(store))
	res, err := r2.Run(context.Background())
	if err != nil {
		t.Fatalf("resumed run: %v", err)
	}
	if res.Patched != 16 {
		t.Fatalf("resumed run Patched = %d, want 16", res.Patched)
	}
	for id := range ff2.provisionedSet() {
		if done[id] {
			t.Fatalf("resume re-patched completed target %s", id)
		}
	}
}

func TestResumeRejectsForeignState(t *testing.T) {
	store := &MemStore{}
	ff := newFakeFleet(nil)
	r := rollout(t, ff, WithStateStore(store))
	if _, err := r.Run(context.Background()); err != nil {
		t.Fatalf("Run: %v", err)
	}

	_, err := New(
		WithTargets(fleetTargets(16, 4)),
		WithCVEs("CVE-2016-0728", "CVE-2017-7184"),
		WithProvisioner(ff.provision),
		WithFirstWaveFraction(0.125),
		WithSeed(2), // different seed than the persisted rollout
		WithStateStore(store),
	)
	if !errors.Is(err, ErrStateMismatch) {
		t.Fatalf("err = %v, want ErrStateMismatch", err)
	}
}

// TestStateTargetLookup checks the binary-search lookup on a fleet
// given in reverse order: every ID is found, IDs below, between and
// above the sorted range are not, and a state resumed from a store
// answers the same way.
func TestStateTargetLookup(t *testing.T) {
	targets := fleetTargets(16, 4)
	slices.Reverse(targets)
	check := func(st *State) {
		t.Helper()
		if len(st.Targets) != len(targets) {
			t.Fatalf("%d targets in state, want %d", len(st.Targets), len(targets))
		}
		for i := range st.Targets {
			if got := st.target(st.Targets[i].ID); got != &st.Targets[i] {
				t.Errorf("target(%q) = %p, want element %d", st.Targets[i].ID, got, i)
			}
		}
		for _, id := range []string{"", "a", "node-", "node-007", "node-16", "node-99", "zzz"} {
			if got := st.target(id); got != nil {
				t.Errorf("target(%q) = %+v, want nil", id, got)
			}
		}
	}

	store := &MemStore{}
	mk := func() *Rollout {
		t.Helper()
		r, err := New(
			WithTargets(targets),
			WithCVEs("CVE-2016-0728", "CVE-2017-7184"),
			WithProvisioner(newFakeFleet(nil).provision),
			WithSeed(1),
			WithStateStore(store),
		)
		if err != nil {
			t.Fatalf("New: %v", err)
		}
		return r
	}
	r := mk()
	check(r.st)
	if _, err := r.Run(context.Background()); err != nil {
		t.Fatalf("Run: %v", err)
	}
	check(mk().st)
	if got := (&State{}).target("node-00"); got != nil {
		t.Errorf("empty state found %+v", got)
	}
}

func TestRunTwiceRejected(t *testing.T) {
	ff := newFakeFleet(nil)
	r := rollout(t, ff)
	if _, err := r.Run(context.Background()); err != nil {
		t.Fatalf("Run: %v", err)
	}
	if _, err := r.Run(context.Background()); err == nil {
		t.Fatalf("second Run succeeded; want error")
	}
}

func TestStateBytesDeterministic(t *testing.T) {
	run := func() []byte {
		store := &MemStore{}
		ff := newFakeFleet(func(id string, p *fakePatcher) {
			if id == "node-03" {
				p.applyErr = errors.New("patch refused")
			}
		})
		r := rollout(t, ff, WithStateStore(store), WithSeed(77))
		r.Run(context.Background())
		return store.Bytes()
	}
	a, b := run(), run()
	if len(a) == 0 {
		t.Fatalf("no state persisted")
	}
	if !bytes.Equal(a, b) {
		t.Fatalf("same seed persisted different state bytes (%d vs %d bytes)", len(a), len(b))
	}
}

func TestFileStoreRoundTrip(t *testing.T) {
	path := t.TempDir() + "/rollout.state"
	fs := NewFileStore(path)
	if st, err := fs.Load(); err != nil || st != nil {
		t.Fatalf("Load before save = %v, %v; want nil, nil", st, err)
	}
	want := fullState()
	if err := fs.Save(want); err != nil {
		t.Fatalf("Save: %v", err)
	}
	got, err := fs.Load()
	if err != nil {
		t.Fatalf("Load: %v", err)
	}
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("round trip mismatch:\ngot  %+v\nwant %+v", got, want)
	}
}

func TestFaultFractionDeterministicSelection(t *testing.T) {
	targets := fleetTargets(200, 10)
	pick := func(seed int64, frac float64) map[string]bool {
		fn := FaultFraction(seed, frac, SMIFaults(4)...)
		out := make(map[string]bool)
		for _, tg := range targets {
			if fn(tg) != nil {
				out[tg.ID] = true
			}
		}
		return out
	}
	a, b := pick(5, 0.1), pick(5, 0.1)
	if fmt.Sprint(a) != fmt.Sprint(b) {
		t.Fatalf("same seed selected different targets")
	}
	if len(a) == 0 || len(a) > 60 {
		t.Fatalf("frac 0.1 of 200 selected %d targets; selection badly skewed", len(a))
	}
	if n := len(pick(5, 0)); n != 0 {
		t.Fatalf("frac 0 selected %d targets", n)
	}
	if n := len(pick(5, 1)); n != 200 {
		t.Fatalf("frac 1 selected %d targets, want all 200", n)
	}
}

func TestNewRolloutOptionValidation(t *testing.T) {
	ff := newFakeFleet(nil)
	base := func() []Option {
		return []Option{
			WithTargets(fleetTargets(4, 2)),
			WithCVEs("CVE-2016-0728"),
			WithProvisioner(ff.provision),
		}
	}
	cases := []struct {
		name string
		opts []Option
	}{
		{"no targets", []Option{WithCVEs("CVE-2016-0728"), WithProvisioner(ff.provision)}},
		{"no cves", []Option{WithTargets(fleetTargets(4, 2)), WithProvisioner(ff.provision)}},
		{"no provisioner", []Option{WithTargets(fleetTargets(4, 2)), WithCVEs("CVE-2016-0728")}},
		{"empty fleet", append(base(), WithTargets(nil))},
		{"duplicate target", []Option{WithTargets([]Target{{ID: "a"}, {ID: "a"}}), WithCVEs("c"), WithProvisioner(ff.provision)}},
		{"empty target id", []Option{WithTargets([]Target{{ID: ""}}), WithCVEs("c"), WithProvisioner(ff.provision)}},
		{"targets twice", append(base(), WithTargets(fleetTargets(4, 2)))},
		{"cves twice", append(base(), WithCVEs("CVE-2017-7184"))},
		{"empty cve", []Option{WithTargets(fleetTargets(4, 2)), WithCVEs(""), WithProvisioner(ff.provision)}},
		{"nil provisioner", append(base(), WithProvisioner(nil))},
		{"canary zero", append(base(), WithCanarySize(0))},
		{"canary exceeds fleet", append(base(), WithCanarySize(5))},
		{"first fraction zero", append(base(), WithFirstWaveFraction(0))},
		{"first fraction over one", append(base(), WithFirstWaveFraction(1.5))},
		{"growth one", append(base(), WithGrowthFactor(1))},
		{"concurrency zero", append(base(), WithWaveConcurrency(0))},
		{"negative pause budget", append(base(), WithPauseBudget(-time.Second))},
		{"regress factor below one", append(base(), WithRegressFactor(0.5))},
		{"tolerance one", append(base(), WithUnhealthyTolerance(1))},
		{"halt threshold zero", append(base(), WithHaltThreshold(0))},
		{"batch size zero", append(base(), WithTargetBatchSize(0))},
		{"fetch workers zero", append(base(), WithTargetFetchWorkers(0))},
		{"nil store", append(base(), WithStateStore(nil))},
		{"nil faults", append(base(), WithTargetFaults(nil))},
		{"nil option", append(base(), nil)},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			_, err := New(tc.opts...)
			if err == nil {
				t.Fatalf("New accepted invalid options")
			}
			if !errors.Is(err, options.ErrInvalid) {
				t.Fatalf("err = %v, want options.ErrInvalid", err)
			}
			var oe *options.Error
			if !errors.As(err, &oe) {
				t.Fatalf("err %v does not unwrap to *options.Error", err)
			}
			if oe.Constructor != "kshot.NewRollout" {
				t.Fatalf("Constructor = %q, want kshot.NewRollout", oe.Constructor)
			}
		})
	}
}

func TestRolloutObserverCounters(t *testing.T) {
	hooks := obs.NewHooks(obs.DefaultTraceCapacity, nil)
	ff := newFakeFleet(nil)
	r := rollout(t, ff, WithObserver(hooks))
	if _, err := r.Run(context.Background()); err != nil {
		t.Fatalf("Run: %v", err)
	}
	snap := hooks.Metrics.Snapshot()
	counters := make(map[string]int64)
	for _, c := range snap.Counters {
		counters[c.Name] = c.Value
	}
	if counters[obs.CtrRolloutPatched] != 16 {
		t.Fatalf("%s = %d, want 16", obs.CtrRolloutPatched, counters[obs.CtrRolloutPatched])
	}
	if counters[obs.CtrRolloutWaves] == 0 {
		t.Fatalf("no waves counted")
	}
}
