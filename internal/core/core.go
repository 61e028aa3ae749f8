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

	"kshot/internal/introspect"
	"kshot/internal/isa"
	"kshot/internal/kcrypto"
	"kshot/internal/kernel"
	"kshot/internal/machine"
	"kshot/internal/mem"
	"kshot/internal/obs"
	"kshot/internal/options"
	"kshot/internal/patch"
	"kshot/internal/patchserver"
	"kshot/internal/pipeline"
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

	// reserved sizes the boot-time KShot reservation. The zero value is
	// the paper's 18 MB split. It is unexported and set only by
	// WithPayloadReservation, so no caller of the public API (kshot.Options
	// aliases this struct) can resize the reservation.
	reserved mem.ReservedLayout

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

	// TemplateCache, when set, shares booted template machines across
	// Systems (see template.go): the first System per (version, ftrace,
	// inline, extra-files, dispatch, vCPUs, reservation) config pays the
	// full boot, and every later one only forks it. Without a cache each
	// System boots a single-use template and forks it once.
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

	// Retained so the lazy attach can dial, say hello and build the
	// enclave.
	serverAddr  string
	meas        sgx.Measurement
	attKey      []byte
	hashAlg     kcrypto.HashAlg
	rng         io.Reader
	sessionRoot []byte // derived-session channel root, shared with the SMM handler

	helperPriv mem.Priv

	// obs is the instrumentation handle every layer holds (see
	// layerHooks): the caller's tracer, metrics, fault set and wall
	// clock plus this System's introspection channel, nil when all of
	// them are off (the real clock then paces every wait).
	obs *obs.Hooks

	// intr/det are the introspection event channel and kernel-text
	// detector, nil unless EnableIntrospection ran. The pipeline
	// announces patch SMIs to det (ExpectSMI) and rebaselines it after
	// every successful text change, so the detector's last-known-good
	// snapshot tracks the text KShot itself produced.
	intr *introspect.Channel
	det  *introspect.Detector

	// deliverMu serializes Stages 2–4 of every delivery: the handler's
	// cursors, the mem_W directory and the package SMI hold one package
	// at a time.
	deliverMu sync.Mutex

	// pending is the newest MAC'd status record an SMI wrote (a package
	// SMI's or Protect's) that the server has not acknowledged yet (Seq
	// 0: none), guarded by statusMu. Apply, ApplyAll and Close send it
	// (see acknowledge).
	statusMu sync.Mutex
	pending  smmpatch.Status
}

// closeAckTimeout bounds the acknowledgement round trip Close makes, so
// a wedged server cannot hang Close.
const closeAckTimeout = time.Second

// WithPayloadReservation returns opts with the boot-time reservation
// sized for a patch of n payload bytes. It keeps the paper's 18 MB split
// while mem_W and mem_X each fit n plus 1 MB of headroom, and otherwise
// enlarges both to n + 2 MB, so the encrypted copy can be staged in
// mem_W and the executable copy placed in mem_X. Of the paper's sizes
// only the 10 MB row of Tables II/III needs that (EXPERIMENTS.md, Table
// III).
func WithPayloadReservation(opts Options, n int) Options {
	if m := uint64(n); m+1<<20 > mem.MemWSize || m+1<<20 > mem.MemXSize {
		opts.reserved = mem.ReservedLayout{RWSize: mem.MemRWSize, WSize: m + 2<<20, XSize: m + 2<<20}
	}
	return opts
}

// Validate checks the assembled options for values no deployment can
// boot with, returning a typed *options.Error (matching
// options.ErrInvalid) for the first offender. It is the one place a
// System option's value is checked: NewSystemCtx and NewTemplate call
// it, so every route into a System — kshot.New's With* funcs, a custom
// kshot.Option, or a literal Options — meets the same rules. The error
// names the kshot.With* func that sets the offending field.
func (o *Options) Validate() error {
	bad := func(option, format string, a ...any) error {
		return options.Errorf("kshot.New", option, format, a...)
	}
	switch o.Version {
	case "", "3.14", "4.4":
	default:
		return bad("WithVersion", "unsupported kernel version %q (want 3.14 or 4.4)", o.Version)
	}
	if o.NumVCPUs < 0 {
		return bad("WithVCPUs", "must be >= 0, got %d", o.NumVCPUs)
	}
	switch o.Dispatch {
	case isa.DispatchBlocks, isa.DispatchOracle:
	case isa.DispatchLockstep:
		if o.NumVCPUs > 1 {
			return bad("Options.Dispatch", "lockstep requires exactly 1 vCPU, got %d", o.NumVCPUs)
		}
	default:
		return bad("Options.Dispatch", "unknown dispatch mode %d", int(o.Dispatch))
	}
	for name := range o.ExtraFiles {
		if name == "" {
			return bad("WithExtraFiles", "empty file name")
		}
	}
	switch o.HashAlg {
	case 0, kcrypto.HashSHA256, kcrypto.HashSDBM:
	default:
		return bad("WithHashAlg", "unknown hash algorithm %v", o.HashAlg)
	}
	if o.Introspection != nil {
		if o.Introspection.Capacity < 0 {
			return bad("WithIntrospection", "capacity must be >= 0, got %d", o.Introspection.Capacity)
		}
		if o.Introspection.SweepEvery < 0 {
			return bad("WithIntrospection", "sweep period must be >= 0, got %v", o.Introspection.SweepEvery)
		}
	}
	return nil
}

// NewSystemCtx provisions a target: it forks a booted template
// machine, installs fresh per-target SMM secrets, and locks SMRAM. ctx
// is checked between boot stages (kernel build, machine boot, fork), so
// a halted rollout stops booting stragglers. Every System is a fork: of
// Options.TemplateCache's template for this configuration when a cache
// is set, else of a single-use template booted here and closed right
// after the fork. Registration with the patch server, the enclave load,
// and the channel bootstrap happen at first contact (the first Apply,
// ApplyAll or Rollback), so NewSystemCtx never touches the network.
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
	k, err := kernel.Boot(m, img, tree.Config(), opts.reserved)
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
	// The System's hooks go in at dial, so the dial fault fires under
	// the same set as every other layer.
	client, err := patchserver.Dial(ctx, s.serverAddr, patchserver.WithClientObserver(s.obs))
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
	s.client = client
	s.platform = platform
	s.prog = prog
	s.enclave = enclave
	// A handle installed before attach reaches the new layers too.
	s.wire()
	return nil
}

// SetObserver installs the instrumentation handle on every layer of
// the deployment — memory staging, SMI delivery, the SMM patching
// handler, the ECALL boundary, enclave preprocessing, and the
// patch-server clients — or removes it with nil. The handle's fault set
// (obs.Hooks.Faults) is how the chaos suite injects faults, and each
// fired fault is counted in the handle's own metrics under the
// obs.FaultPrefix namespace; nil therefore removes the fault set too.
// The handle's clock (obs.Hooks.Wall) paces every real-time wait —
// retry backoff, injected stalls and fetch latency — and stamps trace
// events, introspection events and verdicts; nil means the real clock.
// Introspection, once enabled, keeps flowing whatever is installed.
// The caller's struct is never modified.
func (s *System) SetObserver(ob *obs.Hooks) {
	s.obs = s.layerHooks(ob)
	s.wire()
}

// layerHooks derives the handle every layer holds from the caller's
// hooks: with introspection on, a copy of them carrying this System's
// event channel; otherwise the caller's hooks themselves.
func (s *System) layerHooks(ob *obs.Hooks) *obs.Hooks {
	if s.intr == nil {
		return ob
	}
	var h obs.Hooks
	if ob != nil {
		h = *ob
	}
	h.Introspect = s.intr
	return &h
}

// wire hands the System's handle to every layer that exists; the
// server-facing layers appear at attach, which wires them again.
func (s *System) wire() {
	ob := s.obs
	s.Machine.Mem.SetObserver(ob)
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
}

// EnableIntrospection wires the event-driven integrity layer into this
// System: the memory and SMM hooks feed a bounded event channel with
// exec-write and SMI events, and a Detector baselines kernel.text now
// and classifies later changes into typed verdicts. NewSystemCtx calls
// it when Options.Introspection is set; tests and the adversary
// harness may also call it directly on an already-provisioned System.
// Enabling twice is an error (the baseline would silently move).
func (s *System) EnableIntrospection(cfg introspect.Config) error {
	if s.det != nil {
		return fmt.Errorf("core: introspection already enabled")
	}
	ch := introspect.NewChannel(cfg.Capacity)
	det, err := introspect.NewDetector(ch, s.Machine.Mem, kernel.TextBase, kernel.TextRegionSize, uint8(smmpatch.CmdProcessPackage))
	if err != nil {
		return err
	}
	s.intr, s.det = ch, det
	s.obs = s.layerHooks(s.obs)
	s.wire()
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

// Close releases the system's resources. An attached System first
// sends a pending status record (a Rollback's or Protect's, say) in one
// round trip bounded by closeAckTimeout. Memory goes last, once the
// detector, enclave, client and machine have stopped: the leaves and
// pages it owns alone return to their pools for the next fork, and any
// later access to the system's memory faults.
func (s *System) Close() {
	s.statusMu.Lock()
	pending := s.pending.Seq != 0
	s.statusMu.Unlock()
	if pending && s.client != nil {
		ctx, cancel := context.WithTimeout(context.Background(), closeAckTimeout)
		_ = s.acknowledge(ctx)
		cancel()
	}
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
// already raised, so the system stays consistent. The patch takes the
// same path as an ApplyAll batch, as a one-member directory. Apply
// ends with one acknowledgement round trip: when it returns, the server
// holds SMM's newest status record, or the error matches
// ErrUnacknowledged and comes with the report.
func (s *System) Apply(ctx context.Context, cve string) (*Report, error) {
	if err := s.Attach(ctx); err != nil {
		return nil, err
	}
	rep, err := s.apply(ctx, cve)
	// The record describes an SMI already raised, so cancellation does
	// not skip its acknowledgement.
	ackErr := s.acknowledge(context.WithoutCancel(ctx))
	if err != nil {
		return nil, err
	}
	return rep, ackErr
}

// apply runs Stages 1–4 of Apply.
func (s *System) apply(ctx context.Context, cve string) (*Report, error) {
	// Stage 1: fetch the encrypted patch (untrusted helper, network).
	fs, err := s.fetch(ctx, []string{cve})
	if err != nil {
		return nil, fmt.Errorf("%w: %s: %w", ErrFetch, cve, err)
	}
	if fs[0].Err != nil {
		return nil, fs[0].Err
	}
	return s.deliverOne(ctx, patch.OpPatch, &pipeline.Member{CVE: cve, Blob: fs[0].Blob, Stages: StageTimes{Fetch: fs[0].Time}})
}

// fetch runs Stage 1 for cves as one pipelined burst over the server
// connection, charging and tracing each blob's virtual fetch time.
// Per-CVE failures land in Fetched.Err; the error return is the
// connection's.
func (s *System) fetch(ctx context.Context, cves []string) ([]pipeline.Fetched, error) {
	rs, err := s.client.FetchPatches(ctx, cves)
	if err != nil {
		return nil, err
	}
	out := make([]pipeline.Fetched, len(rs))
	for i, r := range rs {
		out[i].CVE = r.CVE
		if r.Err != nil {
			out[i].Err = fmt.Errorf("%w: %s: %w", ErrFetch, r.CVE, r.Err)
			continue
		}
		out[i].Blob = r.Blob
		out[i].Time = timing.Linear(s.Model.FetchFixed, s.Model.FetchPerByte, len(r.Blob))
		s.Clock.Advance(out[i].Time)
		s.obs.Span(obs.PhaseFetch, r.CVE, -1, out[i].Time, len(r.Blob))
	}
	return out, nil
}

// Rollback undoes the most recently applied patch (§V-C). It takes
// Apply's path without the fetch: the enclave seals a rollback command,
// which reaches SMM as a one-member directory through the same package
// SMI as every patch. Rollback makes no round trip to the server: the
// status record SMM wrote stays pending until the next Apply, ApplyAll
// or Close acknowledges it, so Rollback never returns ErrUnacknowledged.
func (s *System) Rollback(ctx context.Context, cve string) (*Report, error) {
	if err := s.Attach(ctx); err != nil {
		return nil, err
	}
	return s.deliverOne(ctx, patch.OpRollback, &pipeline.Member{CVE: cve})
}

// deliverOne delivers m alone and reports it, or returns the
// delivery's or m's error.
func (s *System) deliverOne(ctx context.Context, op patch.Op, m *pipeline.Member) (*Report, error) {
	if err := s.deliver(ctx, op, []*pipeline.Member{m}); err != nil {
		return nil, err
	}
	if m.Err != nil {
		return nil, m.Err
	}
	return &Report{ID: m.CVE, Stages: m.Stages}, nil
}

// deliver runs Stages 2–4 for members, one or many, that all carry op:
// patches with their fetched blobs, or rollback commands for their
// CVEs. It makes one FnPrepare ECALL, one mem_W staging directory and
// one package SMI, serialized with every other delivery on s.
// Per-member outcomes land on the members; an error means the delivery
// failed as a whole and nothing can be said about them.
func (s *System) deliver(ctx context.Context, op patch.Op, members []*pipeline.Member) error {
	if err := ctx.Err(); err != nil {
		return err
	}
	s.deliverMu.Lock()
	defer s.deliverMu.Unlock()

	// Stage 2: prepare every member in one ECALL at running cursors.
	smmPub, err := smmpatch.ReadSMMPub(s.Machine.Mem, s.helperPriv, s.Kernel.Res)
	if err != nil {
		return fmt.Errorf("core: read SMM key: %w", err)
	}
	memX, data := s.Handler.Cursors()
	// The member list and the staged directory below never outlive the
	// call; a constant capacity keeps both off the heap.
	prep := make([]sgxprep.Member, 0, smmpatch.MaxBatchMembers)
	for _, m := range members {
		body := m.Blob
		if op == patch.OpRollback {
			body = []byte(m.CVE)
		}
		prep = append(prep, sgxprep.Member{Op: op, Data: body})
	}
	args := argBufs.Get().(*[]byte)
	*args = sgxprep.AppendPrepareArgs((*args)[:0], &sgxprep.PrepareArgs{Members: prep, SMMPub: smmPub, MemXCursor: memX, DataCursor: data})
	out, err := s.ecall(sgxprep.FnPrepare, *args)
	argBufs.Put(args)
	if err != nil {
		return fmt.Errorf("%w: %w", ErrEnclavePrepare, err)
	}
	results, err := sgxprep.DecodeResults(out)
	if err != nil {
		return err
	}
	if len(results) != len(members) {
		return fmt.Errorf("core: prepare returned %d members, want %d", len(results), len(members))
	}

	// Stage 3: stage the successfully prepared members as one mem_W
	// directory; preparation failures get per-member errors and drop
	// out here (the pipeline gives them a delivery of their own).
	// Preprocess and Pass come from the model, not clock spans, so they
	// stay exact while concurrent fetches advance the shared clock.
	staged := make([]smmpatch.BatchMember, 0, smmpatch.MaxBatchMembers)
	for i, mr := range results {
		m := members[i]
		m.Stages = StageTimes{Fetch: m.Stages.Fetch}
		if mr.Err != "" {
			m.Err = fmt.Errorf("%w: %s: %s", ErrEnclavePrepare, m.CVE, mr.Err)
			continue
		}
		m.Stages.Preprocess = mr.Prep
		m.Stages.PayloadBytes = mr.PayloadBytes
		m.Stages.Pass = s.pass(mr.Ciphertext)
		staged = append(staged, smmpatch.BatchMember{EnclavePub: mr.EnclavePub, Ciphertext: mr.Ciphertext})
	}
	if len(staged) == 0 {
		return nil
	}

	// Stage 4: one SMI for the whole directory. Only a patch counts
	// toward the downtime histogram the rollout health gate reads, and
	// only a patch refusal is an activeness-grooming signal.
	codes, outs, err := s.smi(staged)
	if err != nil {
		return err
	}
	want := smmpatch.StatusPatched
	if op == patch.OpRollback {
		want = smmpatch.StatusRolledBack
	}
	j := -1 // the member's index among the staged ones
	for i, m := range members {
		if results[i].Err != "" {
			continue
		}
		j++
		s.smmStages(&m.Stages, outs[j].Breakdown, len(staged))
		if codes[j] != want {
			m.Err = memberErr(m.CVE, codes[j], want, outs[j].Err)
			if op == patch.OpPatch && errors.Is(m.Err, smmpatch.ErrTargetActive) {
				s.det.NoteActiveRefusal(m.CVE)
			}
			continue
		}
		m.Err = nil
		if op == patch.OpPatch {
			s.obs.ObserveDur(obs.HistDowntime, m.Stages.SMMTotal())
		}
		s.det.NoteApplied(m.CVE)
	}
	return nil
}

// argBufs recycles the FnPrepare argument blocks of every System. The
// ECALL copies its arguments into the enclave, so a block is free again
// once it returns, and an idle System holds none.
var argBufs = sync.Pool{New: func() any { return new([]byte) }}

// pass charges Stage 3, the helper copying a sealed package into
// reserved memory, and returns its virtual time.
func (s *System) pass(ciphertext []byte) time.Duration {
	d := timing.Linear(s.Model.PassFixed, s.Model.PassPerByte, len(ciphertext))
	s.Clock.Advance(d)
	return d
}

// smmStages records one member's share of a package SMI of n members:
// the handler's per-member stage times and the amortized world switch.
func (s *System) smmStages(st *StageTimes, bd smmpatch.Breakdown, n int) {
	st.KeyGen = bd.KeyGen
	st.Decrypt = bd.Decrypt
	st.Verify = bd.Verify
	st.Apply = bd.Apply
	st.Switch = timing.AmortizeFixed(s.Model.SMMEntry+s.Model.SMMExit, n)
}

// memberErr builds the error of a member whose code is not want,
// wrapping the handler's typed outcome so errors.Is still finds
// ErrDuplicate, ErrTargetActive, ErrRollbackOrder or ErrNothingApplied.
func memberErr(id string, code, want uint32, err error) error {
	if err == nil {
		return &StatusError{ID: id, Got: code, Want: want}
	}
	return fmt.Errorf("core: %s: %w", id, err)
}

// smi stages the sealed members as one mem_W directory and raises the
// package SMI — the only part that pauses the OS. It returns the
// per-member codes and outcomes once the summary status has been
// confirmed through the mailbox, and keeps that MAC'd status record
// pending for the server (the authenticated DoS-detection handshake;
// see acknowledge). It makes no round trip.
func (s *System) smi(staged []smmpatch.BatchMember) ([]uint32, []smmpatch.Outcome, error) {
	if err := smmpatch.StageBatch(s.Machine.Mem, s.helperPriv, s.Kernel.Res, staged); err != nil {
		return nil, nil, fmt.Errorf("core: stage package: %w", err)
	}
	// The pipeline announces its own package SMIs to the detector; one
	// this trusted path did not announce is a replayed artifact.
	s.det.ExpectSMI()
	s.det.BeginTrustedWindow()
	smiErr := s.SMM.Trigger(smmpatch.CmdProcessPackage, 0)
	if errors.Is(smiErr, smm.ErrRefused) {
		s.det.RetractSMI() // no SMI-enter will consume the announcement
	}
	// Closing the window rebaselines atomically: a background sweep
	// can never diff this SMI's text changes against the old baseline.
	s.det.EndTrustedWindow()
	if smiErr != nil {
		return nil, nil, fmt.Errorf("core: SMM processing: %w", smiErr)
	}
	codes, err := smmpatch.ReadMemberCodes(s.Machine.Mem, s.helperPriv, s.Kernel.Res)
	if err != nil {
		return nil, nil, err
	}
	outs := s.Handler.Outcomes()
	if len(codes) != len(staged) || len(outs) != len(staged) {
		return nil, nil, fmt.Errorf("core: %d codes and %d outcomes for %d members", len(codes), len(outs), len(staged))
	}
	status, err := smmpatch.ReadStatusRecord(s.Machine.Mem, s.helperPriv, s.Kernel.Res)
	if err != nil {
		return nil, nil, err
	}
	if status.Code != smmpatch.StatusBatchDone {
		return nil, nil, &StatusError{ID: "package", Got: status.Code, Want: smmpatch.StatusBatchDone}
	}
	s.keepPending(status)
	return codes, outs, nil
}

// keepPending puts a status record SMM wrote in the pending slot,
// unless the slot already holds a newer one.
func (s *System) keepPending(status smmpatch.Status) {
	s.statusMu.Lock()
	if status.Seq > s.pending.Seq {
		s.pending = status
	}
	s.statusMu.Unlock()
}

// acknowledge sends the pending status record to the server in one
// round trip, bounded by ctx, and sends nothing when none is pending.
// One record stands for every older one it replaced: the server keeps
// only the newest authentic record per attestation key and ignores any
// Seq that does not advance it. The slot is cleared only if the
// acknowledged record is still the pending one, so a newer record
// written meanwhile waits for the next acknowledgement point. A failed
// send leaves the record pending, to be re-sent there, and returns an
// error matching ErrUnacknowledged.
func (s *System) acknowledge(ctx context.Context) error {
	s.statusMu.Lock()
	st := s.pending
	s.statusMu.Unlock()
	if st.Seq == 0 {
		return nil
	}
	if err := s.client.ReportStatusMAC(ctx, st.Code, st.Seq, st.Digest, st.MAC[:]); err != nil {
		return fmt.Errorf("%w: %w", ErrUnacknowledged, err)
	}
	s.statusMu.Lock()
	if s.pending.Seq == st.Seq {
		s.pending = smmpatch.Status{}
	}
	s.statusMu.Unlock()
	return nil
}

// Protect runs SMM introspection over all applied patches, repairing
// and reporting tampering (§V-D). It returns whether tampering was
// found during this run. Like a package SMI's, the MAC'd status record
// the introspection SMI writes (StatusTampered or StatusIdle) stays
// pending until the next Apply, ApplyAll or Close sends it.
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
	status, err := smmpatch.ReadStatusRecord(s.Machine.Mem, s.helperPriv, s.Kernel.Res)
	if err != nil {
		return false, err
	}
	s.keepPending(status)
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
