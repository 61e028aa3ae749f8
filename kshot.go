// Package kshot is a simulation-grade reproduction of "KShot: Live
// Kernel Patching with SMM and SGX" (DSN 2020): trustworthy live
// kernel patching whose preparation runs in an SGX enclave and whose
// deployment runs in an SMM handler, so that neither step depends on
// the correctness — or honesty — of the kernel being patched.
//
// Because SMM handlers and SGX enclaves are not reachable from a Go
// process, the system runs on a fully simulated x86-class target
// machine: access-controlled physical memory, an x86-like ISA with
// 5-byte jmp/call rel32 encodings, a multi-vCPU interpreter, SMRAM/SMI
// semantics, and an EPC with enclave-only pages. Every mechanism of
// the paper — binary diffing, inlining analysis, trampoline patching,
// ftrace-aware redirection, per-patch rekeyed SGX→SMM transport, rollback, and
// introspection — executes as real code against that machine.
//
// Every constructor in the package shares one configuration idiom:
// functional options that fail construction with a typed *OptionError
// (matching ErrInvalidOption), before any hardware is simulated or any
// socket opened, when an argument is out of range or two options
// conflict. A System's With* funcs only fill in one Options record;
// Options.Validate is the one place its values are checked, so a
// custom Option meets the same rules as the built-in ones.
//
// The typical single-target flow mirrors the paper's Figure 2:
//
//	srv, _ := kshot.NewPatchServer(kshot.WithTreeProvider(kshot.TreeProviderFor(entry)))
//	srv.RegisterPatch(entry.SourcePatch())
//	sys, _ := kshot.New(
//		kshot.WithVersion("4.4"),
//		kshot.WithExtraFiles(map[string]string{entry.File: entry.Vuln}),
//		kshot.WithServerAddr(srv.Addr()),
//	)
//	report, _ := sys.Apply(ctx, entry.CVE) // fetch → enclave prep → SMI → patched
//
// Many CVEs go through the concurrent batch pipeline instead, which
// fans out the fetches and delivers whole batches under single SMIs:
//
//	batch, _ := sys.ApplyAll(ctx, cves, kshot.WithBatchSize(8))
//
// Whole fleets go through the rollout orchestrator, which drives a
// CVE batch across many targets in staged canary waves, health-gating
// each wave on the targets' own metrics and rolling back waves that
// regress:
//
//	roll, _ := kshot.NewRollout(
//		kshot.WithTargets(fleet),
//		kshot.WithCVEs("CVE-2016-0728", "CVE-2017-7184"),
//		kshot.WithProvisioner(kshot.SystemProvisioner(srv.Addr())),
//	)
//	result, _ := roll.Run(ctx)
//
// See the examples directory for runnable end-to-end scenarios and
// bench_test.go for the harness regenerating every table and figure of
// the paper's evaluation.
package kshot

import (
	"context"
	"fmt"
	"io"

	"kshot/internal/core"
	"kshot/internal/cvebench"
	"kshot/internal/introspect"
	"kshot/internal/kcrypto"
	"kshot/internal/kernel"
	"kshot/internal/mem"
	"kshot/internal/options"
	"kshot/internal/orchestrator"
	"kshot/internal/patchserver"
	"kshot/internal/workload"
)

// ---------------------------------------------------------------------------
// Option errors — the vocabulary every constructor's With* options
// share. A rejected option fails construction with a *OptionError
// naming the constructor, the option, and the reason; all of them
// match ErrInvalidOption under errors.Is.
// ---------------------------------------------------------------------------

// ErrInvalidOption classifies every eager option-validation failure
// from New, NewPatchServer, and NewRollout.
var ErrInvalidOption = options.ErrInvalid

// OptionError is the typed rejection carrying the constructor and
// option names; retrieve it with errors.As.
type OptionError = options.Error

// ---------------------------------------------------------------------------
// System — booting and patching one simulated target machine.
// ---------------------------------------------------------------------------

// System is a provisioned KShot deployment on one simulated target
// machine.
type System = core.System

// Options is the one configuration record of a System. The With*
// Options fill it in, and New checks it with Options.Validate before
// provisioning, so a custom Option meets the same rules.
type Options = core.Options

// Report is the outcome of one Apply or Rollback, with per-stage
// times.
type Report = core.Report

// StageTimes breaks a patch down into the paper's pipeline stages.
type StageTimes = core.StageTimes

// BatchReport is the outcome of one ApplyAll run over the concurrent
// batch pipeline.
type BatchReport = core.BatchReport

// HashAlg selects payload verification hashing.
type HashAlg = kcrypto.HashAlg

// Verification hash algorithms (SHA-256 is the paper's default, SDBM
// its cheaper alternative).
const (
	HashSHA256 = kcrypto.HashSHA256
	HashSDBM   = kcrypto.HashSDBM
)

// Typed failure classes for Apply/Rollback/ApplyAll; branch with
// errors.Is instead of matching messages.
var (
	ErrFetch          = core.ErrFetch
	ErrUnacknowledged = core.ErrUnacknowledged
	ErrEnclavePrepare = core.ErrEnclavePrepare
	ErrStatusMismatch = core.ErrStatusMismatch
	ErrTargetActive   = core.ErrTargetActive
)

// StatusError carries the mailbox codes behind an ErrStatusMismatch;
// retrieve it with errors.As.
type StatusError = core.StatusError

// Option configures New by setting fields of the Options record. A
// With* rejects only what the record cannot express — an explicit zero
// or nil argument, or a conflicting repeat; New then runs
// Options.Validate and reports the first rejected value as a
// *OptionError before any hardware is simulated.
type Option func(*Options) error

func newErr(option, format string, a ...any) error {
	return options.Errorf("kshot.New", option, format, a...)
}

// WithVersion selects the kernel version to boot ("3.14" or "4.4",
// the default). Selecting two different versions is a conflict.
func WithVersion(v string) Option {
	return func(o *Options) error {
		if o.Version != "" && o.Version != v {
			return newErr("WithVersion", "conflicting versions %q and %q", o.Version, v)
		}
		o.Version = v
		return nil
	}
}

// WithVCPUs sets the target machine's vCPU count (default 4).
func WithVCPUs(n int) Option {
	return func(o *Options) error {
		if n < 1 {
			return newErr("WithVCPUs", "must be >= 1, got %d", n)
		}
		o.NumVCPUs = n
		return nil
	}
}

// WithExtraFiles adds subsystem source files to the base kernel tree —
// the vulnerable code the benchmark kernels ship with. Repeated use
// merges.
func WithExtraFiles(files map[string]string) Option {
	return func(o *Options) error {
		if len(files) == 0 {
			return newErr("WithExtraFiles", "no files given")
		}
		if o.ExtraFiles == nil {
			o.ExtraFiles = make(map[string]string, len(files))
		}
		for name, src := range files {
			o.ExtraFiles[name] = src
		}
		return nil
	}
}

// WithServerAddr points the system at a remote patch server. Pointing
// one system at two different servers is a conflict.
func WithServerAddr(addr string) Option {
	return func(o *Options) error {
		if addr == "" {
			return newErr("WithServerAddr", "empty address")
		}
		if o.ServerAddr != "" && o.ServerAddr != addr {
			return newErr("WithServerAddr", "conflicting addresses %q and %q", o.ServerAddr, addr)
		}
		o.ServerAddr = addr
		return nil
	}
}

// WithHashAlg selects the payload verification hash (default SHA-256).
func WithHashAlg(alg HashAlg) Option {
	return func(o *Options) error {
		o.HashAlg = alg
		return nil
	}
}

// WithRand sets the entropy source for all key material (crypto/rand
// by default; deterministic readers in tests).
func WithRand(r io.Reader) Option {
	return func(o *Options) error {
		if r == nil {
			return newErr("WithRand", "nil reader")
		}
		o.Rand = r
		return nil
	}
}

// WithActivenessCheck enables the SMM handler's conservative
// activeness check: patches to functions currently executing on (or
// returning into) some vCPU are refused with ErrTargetActive and can
// be retried.
func WithActivenessCheck(on bool) Option {
	return func(o *Options) error {
		o.CheckActiveness = on
		return nil
	}
}

// WithFtrace switches the booted kernel's ftrace instrumentation on or
// off (on by default). The patch server rebuilds with whatever config
// the target attests, so patches stay address-compatible either way;
// with ftrace off, trampolines overwrite function entry bytes instead
// of the __fentry__ prologue.
func WithFtrace(on bool) Option {
	return func(o *Options) error {
		o.DisableFtrace = !on
		return nil
	}
}

// WithInlining switches the kernel build's compiler inlining on or off
// (on by default). Inlining changes the patch-type landscape: helpers
// marked inline vanish from the binary when it is on (their fixes land
// at every call site, Type 2) and become directly patchable standalone
// functions when it is off (Type 1).
func WithInlining(on bool) Option {
	return func(o *Options) error {
		o.DisableInline = !on
		return nil
	}
}

// TemplateCache shares one booted template machine per kernel
// configuration among Systems. Every System is a COW fork of a
// template; without a cache each one boots its own single-use
// template. With one, the first System for a (version, ftrace,
// inline, extra-files, dispatch, vCPUs) configuration pays the full
// boot, and every later one only forks its clean memory. Each fork is provisioned
// with its own SMM attestation key, channel root, clock, and SMRAM
// lock — nothing secret is shared. Share one cache across a fleet via
// WithTemplateCache or SystemProvisioner's WithTemplateCache option.
type TemplateCache = core.TemplateCache

// TemplateCacheStats is a TemplateCache traffic snapshot.
type TemplateCacheStats = core.TemplateCacheStats

// NewTemplateCache builds an empty template cache. Close it when the
// fleet is provisioned to release the cached template machines (live
// forked Systems keep working).
func NewTemplateCache() *TemplateCache { return core.NewTemplateCache() }

// WithTemplateCache provisions the System by forking tc's cached
// template for this configuration instead of booting a single-use
// one.
func WithTemplateCache(tc *TemplateCache) Option {
	return func(o *Options) error {
		if tc == nil {
			return newErr("WithTemplateCache", "nil cache")
		}
		o.TemplateCache = tc
		return nil
	}
}

// IntrospectConfig configures the event-driven kernel-text integrity
// layer (see WithIntrospection). The zero value enables introspection
// with defaults: a bounded event buffer and manual sweeps only.
type IntrospectConfig = introspect.Config

// IntrospectVerdict is one typed detection raised by the introspection
// detector: kernel-text tampering, a stale-patch replay, or activeness
// grooming. Harvest them via System.Introspection().Verdicts().
type IntrospectVerdict = introspect.Verdict

// WithIntrospection enables continuous kernel-text integrity
// monitoring: cheap hooks in the memory and SMM layers feed writes
// into executable memory and SMI entries and exits to a typed,
// bounded, drop-counting event channel, and a detector
// sweeps kernel.text against the last-known-good snapshot between
// SMIs, classifying writes outside SMI windows, unannounced patch
// SMIs, and activeness-check starvation into typed verdicts.
// Introspection is off by default; disabled, the hooks cost one
// predictable branch on paths that are already rare.
func WithIntrospection(cfg IntrospectConfig) Option {
	return func(o *Options) error {
		o.Introspection = &cfg
		return nil
	}
}

// ApplyOption tunes System.ApplyAll (batch size, fetch fan-out, retry
// policy). Like every option in the package it validates eagerly:
// ApplyAll rejects out-of-range tuning before starting the pipeline.
type ApplyOption = core.ApplyOption

// ApplyAll tuning options.
var (
	WithBatchSize    = core.WithBatchSize
	WithFetchWorkers = core.WithFetchWorkers
	WithMaxRetries   = core.WithMaxRetries
	WithRetryBackoff = core.WithRetryBackoff
)

// New provisions a simulated target machine with the given options:
// it forks a booted template machine and locks down SMM with fresh
// per-target secrets. New never touches the network: the System
// registers with the patch server, attests and loads the preparation
// enclave, and bootstraps its SGX↔SMM channel at first contact — the
// first Apply, ApplyAll or Rollback (or an explicit System.Attach),
// which retries whatever step failed on an earlier call.
func New(opts ...Option) (*System, error) {
	return NewCtx(context.Background(), opts...)
}

// NewCtx is New with provisioning-time cancellation: ctx is checked
// between boot stages (kernel build, machine boot, fork), so callers
// provisioning fleets can abandon in-flight boots when the rollout is
// halted.
func NewCtx(ctx context.Context, opts ...Option) (*System, error) {
	var o Options
	for _, opt := range opts {
		if opt == nil {
			return nil, newErr("Option", "nil option")
		}
		if err := opt(&o); err != nil {
			return nil, err
		}
	}
	return core.NewSystemCtx(ctx, o)
}

// ---------------------------------------------------------------------------
// Patch server — the trusted build side of the protocol.
// ---------------------------------------------------------------------------

// PatchServer is the remote, trusted patch build server.
type PatchServer = patchserver.Server

// OSInfo is the target build description uploaded to the server.
type OSInfo = patchserver.OSInfo

// TreeProvider supplies full kernel source trees per version.
type TreeProvider = patchserver.TreeProvider

// ServerOption configures NewPatchServer: the listen address, the
// source trees served, the build-cache bound, the per-connection idle
// deadline, and the concurrency gate.
type ServerOption = patchserver.ServerOption

// Patch server options. WithTreeProvider is required; WithListenAddr
// defaults to an ephemeral localhost port.
var (
	WithListenAddr          = patchserver.WithListenAddr
	WithTreeProvider        = patchserver.WithTreeProvider
	WithServerMaxConns      = patchserver.WithMaxConns
	WithServerAcceptWait    = patchserver.WithAcceptWait
	WithServerIdleTimeout   = patchserver.WithIdleTimeout
	WithServerCacheCapacity = patchserver.WithCacheCapacity
)

// NewPatchServer starts a patch server. WithTreeProvider supplies the
// kernel sources it builds from (required); WithListenAddr picks the
// TCP address ("host:0" — the default — takes an ephemeral port).
// Built patch artifacts are cached and shared across targets with the
// same kernel configuration; per-session encryption stays per-client.
func NewPatchServer(opts ...ServerOption) (*PatchServer, error) {
	return patchserver.New(opts...)
}

// ---------------------------------------------------------------------------
// Fleet rollout — staged canary waves across many targets.
// ---------------------------------------------------------------------------

// Rollout is a configured staged rollout of one CVE batch across a
// fleet of targets: canary wave, first percentage wave, exponentially
// widening waves — each health-gated on the targets' own metrics and
// rolled back in place when the gate fails.
type Rollout = orchestrator.Rollout

// RolloutOption configures NewRollout.
type RolloutOption = orchestrator.Option

// RolloutTarget is one fleet member, tagged with its failure domain;
// the wave scheduler never puts a quorum of one domain in flight.
type RolloutTarget = orchestrator.Target

// Patcher is the per-target patching surface a rollout drives. A
// *System is a Patcher; tests substitute fakes.
type Patcher = orchestrator.Patcher

// Provisioner turns a RolloutTarget into a live Patcher when the
// target's wave starts. SystemProvisioner builds the standard one.
type Provisioner = orchestrator.Provisioner

// RolloutResult is a finished rollout's accounting: per-target states,
// per-wave outcomes, and the canary baseline.
type RolloutResult = orchestrator.Result

// WaveResult is one wave's gated outcome.
type WaveResult = orchestrator.WaveResult

// Wave is one planned rollout stage.
type Wave = orchestrator.Wave

// RolloutState is the resumable rollout record a RolloutStore
// persists; a new coordinator handed the same store picks up where
// the last one crashed without re-patching completed targets.
type RolloutState = orchestrator.State

// TargetState is one target's recorded outcome within a rollout.
type TargetState = orchestrator.TargetState

// RolloutStatus is a target's position in the rollout lifecycle.
type RolloutStatus = orchestrator.Status

// Target lifecycle states.
const (
	RolloutPending    = orchestrator.StatusPending
	RolloutPatched    = orchestrator.StatusPatched
	RolloutFailed     = orchestrator.StatusFailed
	RolloutRolledBack = orchestrator.StatusRolledBack
)

// RolloutStore persists rollout state across coordinator restarts.
type RolloutStore = orchestrator.Store

// RolloutMemStore is an in-memory RolloutStore — the determinism
// witness in tests (Bytes exposes the exact persisted encoding).
type RolloutMemStore = orchestrator.MemStore

// RolloutFileStore is a file-backed RolloutStore with atomic saves.
type RolloutFileStore = orchestrator.FileStore

// NewRolloutFileStore builds a RolloutStore writing to path.
func NewRolloutFileStore(path string) *RolloutFileStore {
	return orchestrator.NewFileStore(path)
}

// Typed failure classes for Rollout.Run; branch with errors.Is.
var (
	ErrWaveRolledBack = orchestrator.ErrWaveRolledBack
	ErrRolloutHalted  = orchestrator.ErrRolloutHalted
	ErrStateMismatch  = orchestrator.ErrStateMismatch
)

// WaveError reports one rolled-back wave; HaltError reports an early
// stop. Retrieve them with errors.As.
type (
	WaveError = orchestrator.WaveError
	HaltError = orchestrator.HaltError
)

// Rollout options. WithTargets, WithCVEs, and WithProvisioner are
// required; the rest tune wave shape, health gating, chaos, and
// persistence.
var (
	WithTargets            = orchestrator.WithTargets
	WithCVEs               = orchestrator.WithCVEs
	WithProvisioner        = orchestrator.WithProvisioner
	WithCanarySize         = orchestrator.WithCanarySize
	WithFirstWaveFraction  = orchestrator.WithFirstWaveFraction
	WithGrowthFactor       = orchestrator.WithGrowthFactor
	WithWaveConcurrency    = orchestrator.WithWaveConcurrency
	WithSeed               = orchestrator.WithSeed
	WithPauseBudget        = orchestrator.WithPauseBudget
	WithRegressFactor      = orchestrator.WithRegressFactor
	WithUnhealthyTolerance = orchestrator.WithUnhealthyTolerance
	WithHaltThreshold      = orchestrator.WithHaltThreshold
	WithStateStore         = orchestrator.WithStateStore
	WithTargetFaults       = orchestrator.WithTargetFaults
	WithRolloutObserver    = orchestrator.WithObserver
	WithProgress           = orchestrator.WithProgress
)

// FaultFraction builds a deterministic chaos schedule for
// WithTargetFaults: a seeded hash selects frac of the fleet to
// receive the given faults, replayably. SMIFaults is the canonical
// mid-SMI schedule (the chipset refuses the first n SMI deliveries).
var (
	FaultFraction = orchestrator.FaultFraction
	SMIFaults     = orchestrator.SMIFaults
)

// NewRollout builds a staged rollout. The wave plan is fixed here —
// a pure function of the fleet, the options, and the seed — and, when
// WithStateStore finds persisted state for this rollout, construction
// adopts it so Run resumes instead of starting over.
func NewRollout(opts ...RolloutOption) (*Rollout, error) {
	return orchestrator.New(opts...)
}

// SystemProvisioner is the standard fleet provisioner: each target
// gets a fresh simulated System pointed at the shared patch server,
// with any extra New options applied after the address; it registers
// with the server at its first patch. Provisioning honors ctx — a
// halted rollout stops booting stragglers. Pass
// WithTemplateCache(cache) in opts to fork every target from one
// cached template per configuration instead of booting one each.
func SystemProvisioner(serverAddr string, opts ...Option) Provisioner {
	return func(ctx context.Context, t RolloutTarget) (Patcher, error) {
		sys, err := NewCtx(ctx, append([]Option{WithServerAddr(serverAddr)}, opts...)...)
		if err != nil {
			return nil, fmt.Errorf("provision %s: %w", t.ID, err)
		}
		return sys, nil
	}
}

// ---------------------------------------------------------------------------
// CVE benchmark, kernels & workloads — the paper's evaluation inputs.
// ---------------------------------------------------------------------------

// CVE is one benchmark vulnerability: vulnerable subsystem source, its
// fix, and an exploit probe.
type CVE = cvebench.Entry

// ExploitResult reports one exploit probe.
type ExploitResult = cvebench.ExploitResult

// CVEList returns the paper's 30-entry Table I benchmark suite.
func CVEList() []*CVE { return cvebench.All() }

// FigureCVEs returns the six CVEs of the paper's Figures 4 and 5.
func FigureCVEs() []*CVE { return cvebench.FigureSix() }

// LookupCVE returns a benchmark entry by identifier.
func LookupCVE(id string) (*CVE, bool) { return cvebench.Get(id) }

// TreeProviderFor builds a TreeProvider whose kernels include the
// given entries' vulnerable subsystems (the distro vendor's full
// source view).
func TreeProviderFor(entries ...*CVE) TreeProvider {
	return cvebench.TreeProviderFor(entries...)
}

// SourceTree is a kernel source tree.
type SourceTree = kernel.SourceTree

// SourcePatch is a source-level kernel patch.
type SourcePatch = kernel.SourcePatch

// BaseKernelTree returns the base kernel source for a supported
// version ("3.14" or "4.4").
func BaseKernelTree(version string) (*SourceTree, error) { return kernel.BaseTree(version) }

// Workload is the Sysbench-like whole-system workload driver.
type Workload = workload.Driver

// WorkloadKind selects the workload mix.
type WorkloadKind = workload.Kind

// Workload kinds.
const (
	WorkloadCPU    = workload.CPU
	WorkloadMemory = workload.Memory
	WorkloadMixed  = workload.Mixed
)

// NewWorkload creates a workload driver on a system's kernel.
func NewWorkload(sys *System, kind WorkloadKind) *Workload {
	return workload.New(sys.Kernel, kind)
}

// ---------------------------------------------------------------------------
// Adversarial demos — the kernel-resident attacker of §V-D.
// ---------------------------------------------------------------------------

// Rootkit simulates a kernel-resident attacker on a System: it
// snapshots the entry bytes of chosen kernel functions and can later
// restore them at kernel privilege — the malicious patch reversion of
// the paper's §V-D. It exists so examples and experiments can
// demonstrate that SMM introspection (System.Protect) detects and
// repairs the reversion, where kernel-trusted patching systems are
// silently defeated.
type Rootkit struct {
	sys   *System
	saved map[string][]byte
}

// InstallRootkit plants the attacker before patching: it snapshots the
// (still vulnerable) entry bytes of the named kernel functions.
func InstallRootkit(sys *System, functions ...string) (*Rootkit, error) {
	rk := &Rootkit{sys: sys, saved: make(map[string][]byte, len(functions))}
	for _, fn := range functions {
		buf, err := sys.Kernel.FuncBytes(fn)
		if err != nil {
			return nil, fmt.Errorf("rootkit: %w", err)
		}
		n := 10
		if len(buf) < n {
			n = len(buf)
		}
		rk.saved[fn] = buf[:n]
	}
	return rk, nil
}

// RevertPatches writes the snapshotted vulnerable bytes back over the
// function entries, undoing any trampolines — a kernel-privilege
// write, exactly what a rootkit can do.
func (rk *Rootkit) RevertPatches() error {
	for fn, orig := range rk.saved {
		addr, err := rk.sys.Kernel.FuncAddr(fn)
		if err != nil {
			return fmt.Errorf("rootkit: %w", err)
		}
		if err := rk.sys.Machine.Mem.Write(mem.PrivKernel, addr, orig); err != nil {
			return fmt.Errorf("rootkit: %w", err)
		}
	}
	return nil
}
