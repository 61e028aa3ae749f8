package orchestrator

import (
	"time"

	"kshot/internal/faultinject"
	"kshot/internal/obs"
	"kshot/internal/options"
)

// Rollout tuning defaults.
const (
	// DefaultCanarySize is the size of wave 0.
	DefaultCanarySize = 1

	// DefaultFirstWaveFraction is the share of the fleet in the first
	// post-canary wave — the paper-style "canary → 1% → widening"
	// ramp.
	DefaultFirstWaveFraction = 0.01

	// DefaultGrowthFactor multiplies the wave size each stage after
	// the first percentage wave.
	DefaultGrowthFactor = 2.0

	// DefaultWaveConcurrency is how many targets of one wave are
	// patched in parallel.
	DefaultWaveConcurrency = 4

	// DefaultRegressFactor is the phase-time regression gate: a wave
	// whose mean per-patch downtime exceeds this multiple of the
	// canary baseline is unhealthy.
	DefaultRegressFactor = 3.0

	// DefaultHaltThreshold is the fleet-wide failure budget: once more
	// than this fraction of the fleet has failed or been rolled back,
	// the rollout halts with ErrRolloutHalted.
	DefaultHaltThreshold = 0.25
)

// Option configures NewRollout. Every With* validates its argument
// eagerly; NewRollout reports the first rejected option as a typed
// *options.Error matching options.ErrInvalid, before provisioning
// anything.
type Option func(*config) error

type config struct {
	targets   []Target
	cves      []string
	provision Provisioner

	canarySize  int
	firstFrac   float64
	growth      float64
	concurrency int
	seed        int64

	pauseBudget   time.Duration
	regressFactor float64
	unhealthyTol  float64
	haltFrac      float64

	store    Store
	faults   func(Target) *faultinject.Set
	obs      *obs.Hooks
	progress func(WaveResult)
}

func defaultConfig() config {
	return config{
		canarySize:    DefaultCanarySize,
		firstFrac:     DefaultFirstWaveFraction,
		growth:        DefaultGrowthFactor,
		concurrency:   DefaultWaveConcurrency,
		regressFactor: DefaultRegressFactor,
		haltFrac:      DefaultHaltThreshold,
	}
}

func optErr(option, format string, a ...any) error {
	return options.Errorf("kshot.NewRollout", option, format, a...)
}

// WithTargets sets the fleet: every target the rollout will patch,
// each tagged with its failure domain. Required; IDs must be unique
// and non-empty. Setting the fleet twice is a conflict.
func WithTargets(targets []Target) Option {
	return func(c *config) error {
		if len(targets) == 0 {
			return optErr("WithTargets", "fleet must not be empty")
		}
		if c.targets != nil {
			return optErr("WithTargets", "fleet set twice")
		}
		seen := make(map[string]bool, len(targets))
		for _, t := range targets {
			if t.ID == "" {
				return optErr("WithTargets", "target with empty ID")
			}
			if seen[t.ID] {
				return optErr("WithTargets", "duplicate target ID %q", t.ID)
			}
			seen[t.ID] = true
		}
		c.targets = append([]Target(nil), targets...)
		return nil
	}
}

// WithCVEs sets the CVE batch rolled out to every target, in
// application order. Required; setting it twice is a conflict.
func WithCVEs(cves ...string) Option {
	return func(c *config) error {
		if len(cves) == 0 {
			return optErr("WithCVEs", "batch must not be empty")
		}
		if c.cves != nil {
			return optErr("WithCVEs", "batch set twice")
		}
		for _, cve := range cves {
			if cve == "" {
				return optErr("WithCVEs", "empty CVE ID")
			}
		}
		c.cves = append([]string(nil), cves...)
		return nil
	}
}

// WithProvisioner sets the factory that turns a Target into a live
// Patcher (ordinarily a kshot.System dialed at the shared patch
// server). Required.
func WithProvisioner(p Provisioner) Option {
	return func(c *config) error {
		if p == nil {
			return optErr("WithProvisioner", "provisioner must not be nil")
		}
		if c.provision != nil {
			return optErr("WithProvisioner", "provisioner set twice")
		}
		c.provision = p
		return nil
	}
}

// WithCanarySize sets how many targets form wave 0 (default
// DefaultCanarySize).
func WithCanarySize(n int) Option {
	return func(c *config) error {
		if n < 1 {
			return optErr("WithCanarySize", "must be >= 1, got %d", n)
		}
		c.canarySize = n
		return nil
	}
}

// WithFirstWaveFraction sets the share of the fleet in the first
// post-canary wave, in (0, 1] (default DefaultFirstWaveFraction).
func WithFirstWaveFraction(f float64) Option {
	return func(c *config) error {
		if f <= 0 || f > 1 {
			return optErr("WithFirstWaveFraction", "must be in (0, 1], got %v", f)
		}
		c.firstFrac = f
		return nil
	}
}

// WithGrowthFactor sets the per-wave size multiplier, > 1 (default
// DefaultGrowthFactor).
func WithGrowthFactor(g float64) Option {
	return func(c *config) error {
		if g <= 1 {
			return optErr("WithGrowthFactor", "must be > 1, got %v", g)
		}
		c.growth = g
		return nil
	}
}

// WithWaveConcurrency bounds how many of a wave's targets are patched
// in parallel (default DefaultWaveConcurrency).
func WithWaveConcurrency(n int) Option {
	return func(c *config) error {
		if n < 1 {
			return optErr("WithWaveConcurrency", "must be >= 1, got %d", n)
		}
		c.concurrency = n
		return nil
	}
}

// WithSeed sets the determinism root: wave composition and any chaos
// schedule derive from it, so a rollout replays exactly.
func WithSeed(seed int64) Option {
	return func(c *config) error {
		c.seed = seed
		return nil
	}
}

// WithPauseBudget bounds the total virtual SMM pause one target may
// spend applying the batch; exceeding it marks the target unhealthy
// (zero — the default — disables the budget).
func WithPauseBudget(d time.Duration) Option {
	return func(c *config) error {
		if d < 0 {
			return optErr("WithPauseBudget", "must be >= 0, got %v", d)
		}
		c.pauseBudget = d
		return nil
	}
}

// WithRegressFactor sets the phase-time regression gate: a target
// whose mean per-patch downtime exceeds factor × the canary baseline
// is unhealthy. Must be >= 1; zero disables the gate (default
// DefaultRegressFactor).
func WithRegressFactor(f float64) Option {
	return func(c *config) error {
		if f != 0 && f < 1 {
			return optErr("WithRegressFactor", "must be 0 (disabled) or >= 1, got %v", f)
		}
		c.regressFactor = f
		return nil
	}
}

// WithUnhealthyTolerance sets the fraction of a wave that may be
// unhealthy without failing the gate, in [0, 1) (default 0: one
// unhealthy target rolls the wave back).
func WithUnhealthyTolerance(f float64) Option {
	return func(c *config) error {
		if f < 0 || f >= 1 {
			return optErr("WithUnhealthyTolerance", "must be in [0, 1), got %v", f)
		}
		c.unhealthyTol = f
		return nil
	}
}

// WithHaltThreshold sets the fleet-wide failure budget, in (0, 1]:
// once more than this fraction of the fleet has failed or rolled
// back, the rollout halts (default DefaultHaltThreshold).
func WithHaltThreshold(f float64) Option {
	return func(c *config) error {
		if f <= 0 || f > 1 {
			return optErr("WithHaltThreshold", "must be in (0, 1], got %v", f)
		}
		c.haltFrac = f
		return nil
	}
}

// WithStateStore persists rollout state through store after every
// target completion and wave boundary. If the store already holds
// state for this rollout (same seed, CVE batch, and fleet), the
// rollout resumes from it instead of starting over; state for a
// different rollout is rejected with ErrStateMismatch.
func WithStateStore(store Store) Option {
	return func(c *config) error {
		if store == nil {
			return optErr("WithStateStore", "store must not be nil")
		}
		if c.store != nil {
			return optErr("WithStateStore", "store set twice")
		}
		c.store = store
		return nil
	}
}

// WithTargetFaults installs a per-target fault-injection schedule:
// fn is consulted once per provisioned target and may return nil (no
// faults for that target). FaultFraction builds the usual
// deterministic fleet-fraction schedules.
func WithTargetFaults(fn func(Target) *faultinject.Set) Option {
	return func(c *config) error {
		if fn == nil {
			return optErr("WithTargetFaults", "schedule must not be nil")
		}
		c.faults = fn
		return nil
	}
}

// WithObserver installs rollout-level observability hooks: wave and
// target counters under the rollout.* namespace plus the per-target
// pause histogram. The handle's clock (obs.Hooks.Wall) goes into every
// target's handle, pacing its real-time waits (retry backoff, injected
// latency); tests pass timing.FakeWall.
func WithObserver(ob *obs.Hooks) Option {
	return func(c *config) error {
		c.obs = ob
		return nil
	}
}

// WithProgress registers a callback invoked after each wave's health
// gate with that wave's result — how kshot-rollout narrates
// progress. The callback runs on the coordinator goroutine.
func WithProgress(fn func(WaveResult)) Option {
	return func(c *config) error {
		c.progress = fn
		return nil
	}
}
