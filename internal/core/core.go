// Package core is KShot's orchestrator and public API: it assembles
// the simulated target machine (kernel, SMM controller + patching
// handler, SGX platform + preparation enclave), connects to the remote
// patch server, and drives the live patching workflow of Figure 2:
//
//  1. the untrusted helper fetches the encrypted binary patch from the
//     remote server;
//  2. the SGX enclave preprocesses it against the running kernel and
//     seals it for the SMM channel;
//  3. the helper stages ciphertext into the reserved memory and raises
//     an SMI;
//  4. the SMM handler decrypts, verifies, and applies the patch on the
//     paused machine, then resumes the OS.
//
// Every step the helper performs runs at user/kernel privilege against
// access-controlled memory; every SMM step runs on a paused machine.
// A compromised kernel can disturb the helper (a denial of service the
// remote server detects) but cannot forge, read, or tamper with patch
// content.
package core

import (
	"context"
	"errors"
	"fmt"
	"io"
	"sort"
	"sync"
	"time"

	"kshot/internal/faultinject"
	"kshot/internal/introspect"
	"kshot/internal/isa"
	"kshot/internal/kcrypto"
	"kshot/internal/kernel"
	"kshot/internal/machine"
	"kshot/internal/mem"
	"kshot/internal/obs"
	"kshot/internal/options"
	"kshot/internal/patchserver"
	"kshot/internal/sgx"
	"kshot/internal/sgxprep"
	"kshot/internal/smm"
	"kshot/internal/smmpatch"
	"kshot/internal/timing"
)

// Options configures a System.
type Options struct {
	// Version is the kernel version to boot ("3.14" or "4.4").
	Version string

	// NumVCPUs for the target machine (default 4).
	NumVCPUs int

	// Dispatch selects the vCPU execution engine: predecoded basic
	// blocks (the zero value), the decode-switch oracle interpreter,
	// or differential lockstep verification of the two (which requires
	// NumVCPUs == 1). Virtual-time metrics are identical across modes;
	// only wall-clock speed differs.
	Dispatch isa.Dispatch

	// ExtraFiles adds subsystem source files to the base tree — the
	// vulnerable code the benchmark kernels ship with.
	ExtraFiles map[string]string

	// DisableFtrace and DisableInline flip the kernel build config off
	// its defaults (both features on). The generated-corpus sweeps boot
	// every (ftrace × inline) combination; the patch server rebuilds
	// with whatever config the target attests, so patches stay
	// address-compatible either way.
	DisableFtrace bool
	DisableInline bool

	// ServerAddr is the remote patch server's TCP address.
	ServerAddr string

	// HashAlg selects payload verification hashing (default SHA-256).
	HashAlg kcrypto.HashAlg

	// Rand is the entropy source for all key material (crypto/rand
	// when nil; deterministic in tests).
	Rand io.Reader

	// CheckActiveness enables the SMM handler's conservative
	// activeness check: patches to functions currently executing on
	// (or returning into) some vCPU are refused with ErrTargetActive
	// and can be retried.
	CheckActiveness bool

	// DialRetries allows extra TCP connect attempts to the patch
	// server with exponential backoff, and RequestRetries allows
	// reconnect-and-replay of a transport-failed request burst (safe
	// here because the system's hellos are attested, so a reconnect
	// converges on the same channel key). RetryBackoff is the base
	// delay, doubling per attempt (patchserver.DefaultRetryBackoff
	// when zero). The backoff runs on the system's wall clock.
	DialRetries    int
	RequestRetries int
	RetryBackoff   time.Duration

	// TemplateCache, when set, shares booted template machines across
	// Systems (see template.go): the first System per (version, ftrace,
	// inline, extra-files, dispatch, vCPUs) config pays the full boot,
	// and every later one only forks it. Without a cache each System
	// boots a single-use template and forks it once.
	TemplateCache *TemplateCache

	// Introspection, when non-nil, enables the event-driven
	// kernel-text integrity layer: memory/execution/SMM hooks feed a
	// bounded event channel, and a Detector sweeps kernel.text against
	// the last-known-good snapshot, classifying tampering, stale-patch
	// replays, and activeness grooming into typed verdicts (see
	// internal/introspect). Nil — the default — leaves every hook
	// unset, so the disabled cost is one predictable branch on the
	// already-rare paths that could matter.
	Introspection *introspect.Config
}

// StageTimes reports the virtual time each pipeline stage consumed for
// one patch — the measurements behind Tables II/III and Figures 4/5.
// It is an alias of timing.Stages so the batch pipeline and the
// orchestrator share one stage vocabulary.
type StageTimes = timing.Stages

// Report is the outcome of one Apply or Rollback.
type Report struct {
	ID     string
	Stages StageTimes
}

// System is a provisioned KShot deployment on one target machine.
type System struct {
	Machine *machine.Machine
	Kernel  *kernel.Kernel
	SMM     *smm.Controller
	Handler *smmpatch.Handler
	Clock   *timing.Clock
	Model   timing.Model

	// platform/enclave/prog/client are nil until first server use:
	// provisioning is deliberately network-free, and Attach
	// performs the dial, attested hello, and enclave load lazily
	// (overlapping with rollout wave scheduling instead of sitting on
	// the provisioning critical path).
	platform *sgx.Platform
	enclave  *sgx.Enclave
	prog     *sgxprep.Program
	client   *patchserver.Client
	info     patchserver.OSInfo

	// attachMu serializes the lazy attach; after it completes, client
	// and friends are immutable. needBootstrap (also under attachMu)
	// marks a System whose bootstrap key-exchange SMI is still pending,
	// including after an attach that succeeded when the SMI did not.
	attachMu      sync.Mutex
	needBootstrap bool

	// Retained so ApplyAll can dial extra attested fetch connections,
	// and so the lazy attach can build the enclave.
	serverAddr  string
	meas        sgx.Measurement
	attKey      []byte
	hashAlg     kcrypto.HashAlg
	rng         io.Reader
	sessionRoot []byte // derived-session channel root, shared with the SMM handler

	// Client resilience knobs (see Options).
	dialRetries    int
	requestRetries int
	retryBackoff   time.Duration

	helperPriv mem.Priv

	// fi is the fault injection set threaded through every layer (nil
	// outside chaos testing); wall paces real-time waits (retry
	// backoff, injected latency) and defaults to the system clock; obs
	// is the observability hook set threaded the same way (nil when
	// tracing/metrics are disabled).
	fi   *faultinject.Set
	wall timing.WallClock
	obs  *obs.Hooks

	// intr/det are the introspection event channel and kernel-text
	// detector, nil unless EnableIntrospection ran. The pipeline
	// announces patch SMIs to det (ExpectSMI) and rebaselines it after
	// every successful text change, so the detector's last-known-good
	// snapshot tracks the text KShot itself produced.
	intr *introspect.Channel
	det  *introspect.Detector
}

// Validate checks the assembled options for values no deployment can
// boot with, returning a typed *options.Error (matching
// options.ErrInvalid) for the first offender. NewSystem calls it; the
// functional-options constructor surfaces the same errors through its
// With* funcs.
func (o *Options) Validate() error {
	bad := func(option, format string, a ...any) error {
		return options.Errorf("kshot.New", option, format, a...)
	}
	if o.NumVCPUs < 0 {
		return bad("WithVCPUs", "must be >= 0, got %d", o.NumVCPUs)
	}
	switch o.Dispatch {
	case isa.DispatchBlocks, isa.DispatchOracle:
	case isa.DispatchLockstep:
		if o.NumVCPUs > 1 {
			return bad("WithDispatch", "lockstep requires exactly 1 vCPU, got %d", o.NumVCPUs)
		}
	default:
		return bad("WithDispatch", "unknown dispatch mode %d", int(o.Dispatch))
	}
	if o.DialRetries < 0 {
		return bad("WithDialRetries", "must be >= 0, got %d", o.DialRetries)
	}
	if o.RequestRetries < 0 {
		return bad("WithRequestRetries", "must be >= 0, got %d", o.RequestRetries)
	}
	if o.RetryBackoff < 0 {
		return bad("WithDialBackoff", "must be >= 0, got %v", o.RetryBackoff)
	}
	if o.Introspection != nil {
		if o.Introspection.Capacity < 0 {
			return bad("WithIntrospection", "capacity must be >= 0, got %d", o.Introspection.Capacity)
		}
		if o.Introspection.SweepEvery < 0 {
			return bad("WithIntrospection", "sweep period must be >= 0, got %v", o.Introspection.SweepEvery)
		}
		if o.Introspection.GroomThreshold < 0 {
			return bad("WithIntrospection", "groom threshold must be >= 0, got %d", o.Introspection.GroomThreshold)
		}
	}
	return nil
}

// NewSystem provisions a target: it forks a booted template machine,
// installs fresh per-target SMM secrets, and locks SMRAM. Registration
// with the patch server, the enclave load, and the channel bootstrap
// happen at first contact (the first Apply, ApplyAll or Rollback), so
// NewSystem never touches the network.
func NewSystem(opts Options) (*System, error) {
	return NewSystemCtx(context.Background(), opts)
}

// NewSystemCtx is NewSystem with provisioning-time cancellation: ctx
// is checked between boot stages (kernel build, machine boot, fork),
// so a halted rollout stops booting stragglers. Every System is a
// fork: of Options.TemplateCache's template for this configuration
// when a cache is set, else of a single-use template booted here and
// closed right after the fork.
func NewSystemCtx(ctx context.Context, opts Options) (*System, error) {
	if err := opts.Validate(); err != nil {
		return nil, err
	}
	opts = withDefaults(opts)
	s, err := provision(ctx, opts)
	if err != nil {
		return nil, err
	}
	// Introspection wiring is per-System: a fork never inherits its
	// template's hooks.
	if opts.Introspection != nil {
		if err := s.EnableIntrospection(*opts.Introspection); err != nil {
			s.Close()
			return nil, err
		}
	}
	return s, nil
}

// withDefaults canonicalizes the zero-value options, the basis of the
// template cache key.
func withDefaults(opts Options) Options {
	if opts.Version == "" {
		opts.Version = "4.4"
	}
	if opts.HashAlg == 0 {
		opts.HashAlg = kcrypto.HashSHA256
	}
	if opts.NumVCPUs == 0 {
		if opts.Dispatch == isa.DispatchLockstep {
			opts.NumVCPUs = 1 // lockstep rewinds shared memory; one vCPU only
		} else {
			opts.NumVCPUs = 4
		}
	}
	return opts
}

// bootTarget builds the (vulnerable) kernel tree, boots the machine,
// and runs kernel_init — everything a target needs before any
// per-target secret exists. NewTemplate stops here.
func bootTarget(ctx context.Context, opts Options) (*machine.Machine, *kernel.Kernel, patchserver.OSInfo, error) {
	var info patchserver.OSInfo
	if err := ctx.Err(); err != nil {
		return nil, nil, info, err
	}
	tree, err := kernel.BaseTreeWithConfig(kernel.BuildConfig{
		Version: opts.Version,
		Ftrace:  !opts.DisableFtrace,
		Inline:  !opts.DisableInline,
	})
	if err != nil {
		return nil, nil, info, err
	}
	extra := make([]string, 0, len(opts.ExtraFiles))
	for name := range opts.ExtraFiles {
		extra = append(extra, name)
	}
	sort.Strings(extra)
	for _, name := range extra {
		tree.AddFile(name, opts.ExtraFiles[name])
	}
	img, _, err := tree.Build()
	if err != nil {
		return nil, nil, info, fmt.Errorf("core: kernel build: %w", err)
	}
	if err := ctx.Err(); err != nil {
		return nil, nil, info, err
	}
	m, err := machine.New(machine.Config{NumVCPUs: opts.NumVCPUs, Dispatch: opts.Dispatch})
	if err != nil {
		return nil, nil, info, err
	}
	k, err := kernel.Boot(m, img, tree.Config())
	if err != nil {
		m.Stop()
		return nil, nil, info, err
	}
	if _, err := k.Call(0, "kernel_init"); err != nil {
		m.Stop()
		return nil, nil, info, fmt.Errorf("core: kernel init: %w", err)
	}
	info = patchserver.OSInfo{
		Version: opts.Version,
		Ftrace:  tree.Config().Ftrace,
		Inline:  tree.Config().Inline,
	}
	return m, k, info, nil
}

// provisionSMM installs the per-target SMM state on a forked machine:
// controller, fresh status-attestation key, patching handler keyed
// with the fork's channel root, and the SMRAM lock. This always
// happens per target — never in the template — so every fork's SMRAM
// holds its own secrets before it is sealed.
func provisionSMM(opts Options, m *machine.Machine, k *kernel.Kernel, clock *timing.Clock, model timing.Model, rng io.Reader, sessionRoot []byte) (*smm.Controller, *smmpatch.Handler, []byte, error) {
	ctrl, err := smm.NewController(m, kernel.SMRAMBase, clock, model)
	if err != nil {
		return nil, nil, nil, err
	}
	// Status-attestation key: provisioned into SMRAM before lock and
	// registered with the server, so deployment confirmations cannot
	// be forged from the kernel-writable mailbox.
	attKey := make([]byte, 32)
	if _, err := io.ReadFull(rng, attKey); err != nil {
		return nil, nil, nil, fmt.Errorf("core: attestation key: %w", err)
	}
	handler, err := smmpatch.New(smmpatch.Config{
		Reserved:        k.Res,
		KernelVersion:   opts.Version,
		Rand:            opts.Rand,
		CheckActiveness: opts.CheckActiveness,
		TextBase:        kernel.TextBase,
		TextSize:        kernel.TextRegionSize,
		AttestationKey:  attKey,
		SessionRoot:     sessionRoot,
	})
	if err != nil {
		return nil, nil, nil, err
	}
	if err := handler.Register(ctrl); err != nil {
		return nil, nil, nil, err
	}
	if err := ctrl.Lock(); err != nil {
		return nil, nil, nil, err
	}
	return ctrl, handler, attKey, nil
}

// Attach performs the server-facing half of provisioning — dial,
// attested hello, SGX platform construction, the enclave load, and
// the bootstrap key-exchange SMI. Apply, ApplyAll and Rollback call it
// at first contact; harnesses call it up front to keep that one-time
// work out of what they trace or fault-inject. A failed step is
// retried by the next call; once all of them succeeded it is a no-op.
// Safe for concurrent callers.
func (s *System) Attach(ctx context.Context) error {
	s.attachMu.Lock()
	defer s.attachMu.Unlock()
	if s.client == nil {
		if err := s.attach(ctx); err != nil {
			return err
		}
	}
	// The fork's SMRAM is locked and keyed at Fork time, but publishing
	// the channel nonce writes guest memory, so the SMI waits for first
	// contact too: a fresh fork's private frame count stays at zero.
	if s.needBootstrap {
		if err := s.SMM.Trigger(smmpatch.CmdKeyExchange, 0); err != nil {
			return err
		}
		s.needBootstrap = false
	}
	return nil
}

// attach performs the dial + hello + enclave-load sequence. Callers
// hold attachMu.
func (s *System) attach(ctx context.Context) error {
	if err := ctx.Err(); err != nil {
		return err
	}
	client, err := patchserver.Dial(s.serverAddr, s.dialOptions()...)
	if err != nil {
		return fmt.Errorf("%w: %w", ErrFetch, err)
	}
	serverKey, err := client.HelloWithAttestation(s.info, s.meas, s.attKey)
	if err != nil {
		client.Close()
		return fmt.Errorf("%w: %w", ErrFetch, err)
	}
	if err := ctx.Err(); err != nil {
		client.Close()
		return err
	}

	platform, err := sgx.NewPlatform(s.Machine.Mem, kernel.EPCBase, kernel.EPCSize)
	if err != nil {
		client.Close()
		return err
	}
	prog, err := sgxprep.New(sgxprep.Config{
		ServerKey:     serverKey,
		KernelVersion: s.info.Version,
		KernelSymbols: s.Kernel.Symbols(),
		Placement:     s.Handler.Placement(),
		HashAlg:       s.hashAlg,
		Clock:         s.Clock,
		Model:         s.Model,
		Rand:          s.rng,
		SessionRoot:   s.sessionRoot,
	})
	if err != nil {
		client.Close()
		return err
	}
	enclave, err := platform.Load(prog, sgxprep.EnclavePages)
	if err != nil {
		client.Close()
		return err
	}
	if enclave.Measurement() != s.meas {
		enclave.Destroy()
		client.Close()
		return errors.New("core: loaded enclave does not match attested measurement")
	}
	// Hooks installed before attach propagate to the new layers (the
	// client picked them up through dialOptions).
	if s.fi != nil {
		platform.SetFaultInjector(s.fi)
	}
	if s.obs != nil {
		platform.SetObserver(s.obs)
		prog.SetObserver(s.obs)
	}
	s.client = client
	s.platform = platform
	s.prog = prog
	s.enclave = enclave
	return nil
}

// SetFaultInjector threads a fault injection set through every layer
// of the deployment — memory staging, SMI delivery, the batch handler,
// the ECALL boundary, and the patch-server client — or removes it with
// nil. The chaos suite installs a seeded set per run; production
// deployments never call this.
func (s *System) SetFaultInjector(fi *faultinject.Set) {
	s.fi = fi
	s.Machine.Mem.SetFaultInjector(fi)
	s.SMM.SetFaultInjector(fi)
	s.Handler.SetFaultInjector(fi)
	// Server-facing layers exist only after attach; Attach
	// re-applies the stored set to them.
	if s.platform != nil {
		s.platform.SetFaultInjector(fi)
	}
	if s.client != nil {
		s.client.SetFaultInjector(fi)
	}
	s.wireFaultObserver()
}

// SetObserver threads the observability hooks through every layer of
// the deployment — SMI delivery, the SMM patching handler, the ECALL
// boundary, enclave preprocessing, and the patch-server client — or
// removes them with nil. Fired fault-injection points are counted under
// the obs.FaultPrefix namespace whenever both a set and hooks are
// installed, regardless of installation order.
func (s *System) SetObserver(ob *obs.Hooks) {
	s.obs = ob
	s.SMM.SetObserver(ob)
	s.Handler.SetObserver(ob)
	s.intr.SetObserver(ob)
	s.det.SetObserver(ob)
	if s.platform != nil {
		s.platform.SetObserver(ob)
	}
	if s.client != nil {
		s.client.SetObserver(ob)
	}
	if s.prog != nil {
		s.prog.SetObserver(ob)
	}
	s.wireFaultObserver()
}

func (s *System) wireFaultObserver() {
	ob := s.obs
	if ob == nil {
		s.fi.SetObserver(nil)
		return
	}
	s.fi.SetObserver(func(pt faultinject.Point) {
		ob.Count(obs.FaultPrefix+string(pt), 1)
	})
}

// EnableIntrospection wires the event-driven integrity layer into this
// System: the memory, execution, and SMM hooks feed a bounded event
// channel, and a Detector baselines kernel.text now and classifies
// later changes into typed verdicts. NewSystemCtx calls it when
// Options.Introspection is set; tests and the adversary harness may
// also call it directly on an already-provisioned System. Enabling
// twice is an error (the baseline would silently move).
func (s *System) EnableIntrospection(cfg introspect.Config) error {
	if s.det != nil {
		return fmt.Errorf("core: introspection already enabled")
	}
	ch := introspect.NewChannel(cfg.Capacity, s.wall)
	ch.Arm(cfg.ArmSteps)
	det, err := introspect.NewDetector(ch, s.Machine.Mem, kernel.TextBase, kernel.TextRegionSize, introspect.DetectorConfig{
		PatchCmds:      []uint8{uint8(smmpatch.CmdProcessPackage), uint8(smmpatch.CmdProcessBatch)},
		GroomThreshold: cfg.GroomThreshold,
		Wall:           s.wall,
	})
	if err != nil {
		return err
	}
	s.intr, s.det = ch, det
	ch.SetObserver(s.obs)
	det.SetObserver(s.obs)
	s.Machine.Mem.SetIntrospector(ch)
	s.Machine.SetIntrospect(ch)
	s.SMM.SetIntrospector(ch)
	if cfg.SweepEvery > 0 {
		det.Start(cfg.SweepEvery)
	}
	return nil
}

// Introspection returns the kernel-text detector, or nil when
// introspection is not enabled. All Detector methods are nil-safe, so
// callers may use the result unconditionally.
func (s *System) Introspection() *introspect.Detector { return s.det }

// IntrospectionEvents returns the introspection event channel, or nil
// when introspection is not enabled.
func (s *System) IntrospectionEvents() *introspect.Channel { return s.intr }

// SetWallClock replaces the clock pacing real-time waits (nil restores
// real time). Tests inject timing.FakeWall so retry backoff and
// injected latency never depend on the host clock.
func (s *System) SetWallClock(wc timing.WallClock) {
	s.wall = wc
	if s.client != nil {
		s.client.SetWallClock(wc)
	}
}

// dialOptions builds the options for an extra attested patch-server
// connection: the system's retry knobs plus its current hooks, so a
// pool connection's dial-path faults and retry backoff run under the
// same injected set and clock as the boot-time client.
func (s *System) dialOptions() []patchserver.DialOption {
	opts := []patchserver.DialOption{
		patchserver.WithDialRetries(s.dialRetries),
		patchserver.WithRequestRetries(s.requestRetries),
	}
	if s.retryBackoff > 0 {
		opts = append(opts, patchserver.WithRetryBackoff(s.retryBackoff))
	}
	if s.fi != nil {
		opts = append(opts, patchserver.WithClientFaultInjector(s.fi))
	}
	if s.wall != nil {
		opts = append(opts, patchserver.WithClientWallClock(s.wall))
	}
	if s.obs != nil {
		opts = append(opts, patchserver.WithClientObserver(s.obs))
	}
	return opts
}

// ecall enters the preparation enclave, transparently recovering from
// enclave loss: if the enclave was destroyed (crash, EPC loss), it is
// reloaded, re-attested against the measurement registered with the
// server, and the call retried once. The enclave holds no state the
// reload cannot rebuild — sessions are re-derived per package from the
// SMM nonce passed in the arguments.
func (s *System) ecall(fn int, args []byte) ([]byte, error) {
	out, err := s.enclave.ECall(fn, args)
	if err == nil || !errors.Is(err, sgx.ErrDestroyed) {
		return out, err
	}
	if rerr := s.reloadEnclave(); rerr != nil {
		return nil, fmt.Errorf("%w (reload failed: %w)", err, rerr)
	}
	return s.enclave.ECall(fn, args)
}

// reloadEnclave replaces a destroyed enclave with a fresh load of the
// same program and verifies its measurement still matches what the
// server attested at hello.
func (s *System) reloadEnclave() error {
	s.enclave.Destroy()
	e, err := s.platform.Load(s.prog, sgxprep.EnclavePages)
	if err != nil {
		return fmt.Errorf("core: enclave reload: %w", err)
	}
	if e.Measurement() != s.meas {
		e.Destroy()
		return errors.New("core: reloaded enclave does not match attested measurement")
	}
	s.enclave = e
	return nil
}

// Close releases the system's resources. Memory goes last, once the
// detector, enclave, client and machine have stopped: its exclusively
// owned frames return to the frame pool for the next fork, and any
// later access to the system's memory faults.
func (s *System) Close() {
	s.det.Stop()
	if s.enclave != nil {
		s.enclave.Destroy()
	}
	if s.client != nil {
		_ = s.client.Close()
	}
	s.Machine.Stop()
	s.Machine.Mem.Release()
}

// Apply live-patches the named CVE end to end and reports per-stage
// times. The OS pauses only for the SMM portion. ctx bounds the fetch
// and is checked between stages; cancellation never interrupts an SMI
// already raised, so the system stays consistent.
func (s *System) Apply(ctx context.Context, cve string) (*Report, error) {
	if err := s.Attach(ctx); err != nil {
		return nil, err
	}
	st := StageTimes{}
	// Stage 1: fetch the encrypted patch (untrusted helper, network).
	blob, err := s.fetchBlob(ctx, s.client, cve, &st)
	if err != nil {
		return nil, err
	}
	return s.applyPrepared(ctx, cve, blob, &st)
}

// fetchBlob runs Stage 1 over the given server connection, recording
// the virtual fetch time in st.
func (s *System) fetchBlob(ctx context.Context, c *patchserver.Client, cve string, st *StageTimes) ([]byte, error) {
	blob, err := c.FetchPatch(ctx, cve)
	if err != nil {
		return nil, fmt.Errorf("%w: %s: %w", ErrFetch, cve, err)
	}
	st.Fetch = timing.Linear(s.Model.FetchFixed, s.Model.FetchPerByte, len(blob))
	s.Clock.Advance(st.Fetch)
	s.obs.Span(obs.PhaseFetch, cve, -1, st.Fetch, len(blob))
	return blob, nil
}

// applyPrepared runs Stages 2–4 for an already fetched blob: enclave
// preprocessing, staging, and the SMI.
func (s *System) applyPrepared(ctx context.Context, cve string, blob []byte, st *StageTimes) (*Report, error) {
	if err := ctx.Err(); err != nil {
		return nil, err
	}

	// Stage 2: enclave preprocessing.
	smmPub, err := smmpatch.ReadSMMPub(s.Machine.Mem, s.helperPriv, s.Kernel.Res)
	if err != nil {
		return nil, fmt.Errorf("core: read SMM key: %w", err)
	}
	memX, data := s.Handler.Cursors()
	out, err := s.ecall(sgxprep.FnPrepare, sgxprep.EncodePrepareArgs(&sgxprep.PrepareArgs{
		ServerBlob: blob,
		SMMPub:     smmPub,
		MemXCursor: memX,
		DataCursor: data,
	}))
	if err != nil {
		return nil, fmt.Errorf("%w: %s: %w", ErrEnclavePrepare, cve, err)
	}
	res, err := sgxprep.DecodeResult(out)
	if err != nil {
		return nil, err
	}
	st.Preprocess = s.prog.LastBreakdown().Preprocess
	st.PayloadBytes = res.PayloadBytes

	if err := ctx.Err(); err != nil {
		return nil, err
	}
	return s.deliver(cve, res, st, smmpatch.StatusPatched)
}

// Rollback undoes the most recently applied patch (§V-C).
func (s *System) Rollback(ctx context.Context, cve string) (*Report, error) {
	if err := s.Attach(ctx); err != nil {
		return nil, err
	}
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	smmPub, err := smmpatch.ReadSMMPub(s.Machine.Mem, s.helperPriv, s.Kernel.Res)
	if err != nil {
		return nil, err
	}
	out, err := s.ecall(sgxprep.FnPrepareRollback, sgxprep.EncodeRollbackArgs(&sgxprep.RollbackArgs{ID: cve, SMMPub: smmPub}))
	if err != nil {
		return nil, fmt.Errorf("%w: rollback %s: %w", ErrEnclavePrepare, cve, err)
	}
	res, err := sgxprep.DecodeResult(out)
	if err != nil {
		return nil, err
	}
	st := StageTimes{Preprocess: s.prog.LastBreakdown().Preprocess}
	return s.deliver(cve, res, &st, smmpatch.StatusRolledBack)
}

// deliver stages the sealed package and runs the SMM portion.
func (s *System) deliver(cve string, res *sgxprep.Result, st *StageTimes, wantStatus uint32) (*Report, error) {
	// Stage 3: the helper stages ciphertext into reserved memory.
	st.Pass = s.Clock.Span(func() {
		s.Clock.Advance(timing.Linear(s.Model.PassFixed, s.Model.PassPerByte, len(res.Ciphertext)))
	})
	if err := smmpatch.StageBlob(s.Machine.Mem, s.helperPriv, smmpatch.EnclavePubAddr(s.Kernel.Res), res.EnclavePub); err != nil {
		return nil, fmt.Errorf("core: stage enclave key: %w", err)
	}
	if err := smmpatch.StageBlob(s.Machine.Mem, s.helperPriv, smmpatch.PackageAddr(s.Kernel.Res), res.Ciphertext); err != nil {
		return nil, fmt.Errorf("core: stage package: %w", err)
	}

	// Stage 4: SMI — the only part that pauses the OS. The pipeline
	// announces its own patch SMIs to the detector; one this trusted
	// path did not announce is a replayed artifact.
	s.det.ExpectSMI(uint8(smmpatch.CmdProcessPackage))
	s.det.BeginTrustedWindow()
	smiErr := s.SMM.Trigger(smmpatch.CmdProcessPackage, 0)
	// Closing the window rebaselines atomically: a background sweep
	// can never diff this SMI's text changes against the old baseline.
	s.det.EndTrustedWindow()
	bd := s.Handler.LastBreakdown()
	st.KeyGen = bd.KeyGen
	st.Decrypt = bd.Decrypt
	st.Verify = bd.Verify
	st.Apply = bd.Apply
	st.Switch = s.Model.SMMEntry + s.Model.SMMExit
	if smiErr != nil {
		if errors.Is(smiErr, smmpatch.ErrTargetActive) {
			s.det.NoteActiveRefusal(cve)
		}
		return nil, fmt.Errorf("core: SMM processing: %w", smiErr)
	}

	// Confirm through the status mailbox and report to the server with
	// its MAC (the authenticated DoS-detection handshake).
	status, err := smmpatch.ReadStatusRecord(s.Machine.Mem, s.helperPriv, s.Kernel.Res)
	if err != nil {
		return nil, err
	}
	if status.Code != wantStatus {
		return nil, &StatusError{ID: cve, Got: status.Code, Want: wantStatus}
	}
	if err := s.client.ReportStatusMAC(status.Code, status.Seq, status.Digest, status.MAC[:]); err != nil {
		return nil, err
	}
	if wantStatus == smmpatch.StatusPatched {
		s.obs.ObserveDur(obs.HistDowntime, st.KeyGen+st.Decrypt+st.Verify+st.Apply+st.Switch)
	}
	s.det.NoteApplied(cve)
	return &Report{ID: cve, Stages: *st}, nil
}

// Protect runs SMM introspection over all applied patches, repairing
// and reporting tampering (§V-D). It returns whether tampering was
// found during this run.
func (s *System) Protect() (bool, error) {
	before := s.Handler.TamperEvents()
	// The repair may rewrite trampolines; the trusted window defers
	// concurrent sweeps' frame diff and rebaselines on the repaired
	// text when it closes.
	s.det.BeginTrustedWindow()
	err := s.SMM.Trigger(smmpatch.CmdIntrospect, 0)
	s.det.EndTrustedWindow()
	if err != nil {
		return false, err
	}
	return s.Handler.TamperEvents() > before, nil
}

// Applied returns the currently applied patch IDs.
func (s *System) Applied() []string { return s.Handler.Applied() }

// WatchKernelText baselines an SMM-held integrity hash of the whole
// kernel text segment; later Protect calls flag any modification KShot
// did not make itself (HyperCheck-style kernel protection, §V-D).
func (s *System) WatchKernelText() error {
	return s.SMM.Trigger(smmpatch.CmdWatchText, 0)
}
