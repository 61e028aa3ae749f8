// Package obs is KShot's zero-dependency observability layer: a
// fixed-capacity ring-buffer event tracer and a metrics registry. A
// *Hooks handle bundles them with the two other instruments a layer
// can carry — a fault-injection set and an introspection sink for
// exec writes and SMI entry/exit — so
// each instrumented layer takes exactly one handle, through one
// SetObserver. Its methods are safe on a nil receiver, so every
// instrumented layer pays one predictable branch when observability is
// disabled and nothing else.
//
// The tracer is modeled on an SMM-resident event log: capacity is
// fixed up front (SMRAM does not grow), emitting is bounded work with
// no allocation on the hot path, and when the buffer wraps the oldest
// events are overwritten and counted as dropped — the drop counter is
// the honesty witness (dropped == emitted − retained, always).
//
// Time sourcing goes through the handle's one timing.WallClock
// (Hooks.Wall): every layer that waits or stamps a time reads it from
// the handle it already holds. Under timing.FakeWall every event
// timestamp is a pure function of the run's schedule, so a rendered
// trace replays byte-identically — which is what lets the evaluation
// report be golden-tested.
package obs

import (
	"time"

	"kshot/internal/faultinject"
	"kshot/internal/timing"
)

// Phase names one of the paper's pipeline phases (§VI's per-phase
// breakdown). The SMI enter/resume pair brackets the only interval the
// OS is actually paused.
type Phase uint8

// The traced phases.
const (
	PhaseFetch    Phase = iota + 1 // T_fetch: helper downloads the encrypted patch
	PhasePrep                      // T_prep: enclave preprocessing + staging pass
	PhaseVerify                    // T_verify: in-SMM keygen + decrypt + verify
	PhaseSMIEnter                  // T_smi_enter: world switch into SMM
	PhaseApply                     // T_apply: in-SMM patch application
	PhaseResume                    // T_resume: RSM back to the OS
	PhaseWave                      // wave marker: one conflict-free deployment wave
	PhaseBatch                     // batch marker: one batched SMI delivery
)

// String returns the phase's evaluation-table name.
func (p Phase) String() string {
	switch p {
	case PhaseFetch:
		return "T_fetch"
	case PhasePrep:
		return "T_prep"
	case PhaseVerify:
		return "T_verify"
	case PhaseSMIEnter:
		return "T_smi_enter"
	case PhaseApply:
		return "T_apply"
	case PhaseResume:
		return "T_resume"
	case PhaseWave:
		return "wave"
	case PhaseBatch:
		return "batch"
	default:
		return "T_unknown"
	}
}

// Metric names used by the instrumented layers. Counters unless noted.
const (
	CtrSMIEntries  = "smi.entries"
	CtrFetches     = "fetch.results"
	CtrFetchErrors = "fetch.errors"
	CtrECalls      = "sgx.ecalls"
	CtrEnclaveLost = "sgx.destroyed"
	CtrApplied     = "patch.applied"
	CtrRolledBack  = "patch.rolled_back"
	CtrBatches     = "pipeline.batches"
	CtrSingles     = "pipeline.singles"
	CtrRetries     = "pipeline.retries"
	CtrDegraded    = "pipeline.degraded"

	// Fleet-distribution metrics (patch server build cache and
	// connection hygiene).
	CtrCacheHits      = "patchserver.cache.hits"
	CtrCacheMisses    = "patchserver.cache.misses"
	CtrCacheCoalesced = "patchserver.cache.coalesced"
	CtrCacheEvicted   = "patchserver.cache.evicted"
	CtrBuilds         = "patchserver.builds"
	CtrConnAccepted   = "patchserver.conns.accepted"
	CtrConnRefused    = "patchserver.conns.refused"
	CtrConnLive       = "patchserver.conns.live"

	// Fleet-rollout metrics (the orchestrator's wave scheduler and
	// health gate).
	CtrRolloutWaves           = "rollout.waves"
	CtrRolloutWavesRolledBack = "rollout.waves.rolled_back"
	CtrRolloutPatched         = "rollout.targets.patched"
	CtrRolloutFailed          = "rollout.targets.failed"
	CtrRolloutRolledBack      = "rollout.targets.rolled_back"
	CtrRolloutResumeSkips     = "rollout.resume.skipped"

	// Template-fork provisioning metrics (the core template cache and
	// the memory layer's copy-on-write fork accounting).
	CtrTemplateHits   = "template.cache.hits"
	CtrTemplateMisses = "template.cache.misses"
	CtrTemplateForks  = "template.cache.forks"

	// Introspection metrics (the event channel and the kernel-text
	// detector sweeping it).
	CtrIntrospectEvents     = "introspect.events"
	CtrIntrospectDrops      = "introspect.drops"
	CtrIntrospectSweeps     = "introspect.sweeps"
	CtrIntrospectDetections = "introspect.detections"

	// Snapshot-time gauges (GaugeFunc) for the resident-frame split of
	// a machine's physical memory: shared frames are COW references to
	// a template or snapshot, private ones are this machine's own
	// marginal footprint.
	GaugeMemSharedBytes  = "mem.resident.shared_bytes"
	GaugeMemPrivateBytes = "mem.resident.private_bytes"

	// FaultPrefix prefixes one counter per fired fault-injection point
	// (e.g. "fault.smm.refuse").
	FaultPrefix = "fault."

	HistSMIPause        = "smi.pause_us"                 // histogram: OS pause per SMI, µs
	HistBatchSize       = "batch.size"                   // histogram: members per delivered batch
	HistAttempts        = "patch.attempts"               // histogram: delivery attempts per patch
	HistDowntime        = "patch.downtime_us"            // histogram: per-patch SMM downtime, µs
	HistBuildLatency    = "patchserver.build_us"         // histogram: double kernel build + diff, µs
	HistTargetPause     = "rollout.target_pause_us"      // histogram: virtual SMM pause per rollout target, µs
	HistRolloutBaseline = "rollout.baseline_us"          // histogram: canary mean per-patch downtime, µs
	HistDetectLatency   = "introspect.detect_latency_us" // histogram: tamper event → verdict, µs (wall)
)

// DefaultTraceCapacity is the event-log size commands use unless told
// otherwise — sized like a small SMRAM log region.
const DefaultTraceCapacity = 4096

// Hooks is the one instrumentation handle a layer accepts: a tracer, a
// metrics registry, a fault-injection set, an introspection sink and
// the wall clock. A nil *Hooks (or nil fields) is a valid,
// permanently-quiet observer on the real clock.
type Hooks struct {
	Tracer  *Tracer
	Metrics *Metrics

	// Wall paces every real-time wait the layer makes (retry backoff,
	// injected latency and stalls) and stamps trace events,
	// introspection events and verdicts. Nil means the real clock;
	// tests pass timing.FakeWall so waits are instant and timestamps
	// replay.
	Wall timing.WallClock

	// Faults, when non-nil, injects the chaos suite's planned faults at
	// the layer's injection points (see Fault).
	Faults *faultinject.Set

	// Introspect, when non-nil, receives the layer's exec-write and
	// SMI events.
	Introspect Introspector
}

// Introspector receives the events the introspection layer reads:
// writes into executable memory (OnExecWrite, from memory) and SMI
// entry and exit (OnSMIEnter, OnSMIExit, from SMI delivery).
// introspect.Channel is the implementation; each layer calls only its
// own events.
type Introspector interface {
	// OnExecWrite fires after a write (or zero) lands in executable
	// memory; epoch is the code epoch the write bumped to.
	OnExecWrite(addr uint64, n int, epoch uint64)

	// OnSMIEnter fires when an SMI is accepted, before the world
	// switch pauses the machine.
	OnSMIEnter(cmd uint8)

	// OnSMIExit fires after the handler returns, while the machine is
	// still paused; pause is the full virtual OS pause this SMI cost.
	OnSMIExit(cmd uint8, pause time.Duration)
}

// Fault consults the handle's fault set at injection point pt: it
// advances the point's call counter and, when a planned fault fires,
// counts it as FaultPrefix+pt in this handle's metrics and returns it
// for the call site to apply.
func (h *Hooks) Fault(pt faultinject.Point) (faultinject.Fault, bool) {
	if h == nil {
		return faultinject.Fault{}, false
	}
	f, ok := h.Faults.Take(pt)
	if ok {
		h.Metrics.Add(FaultPrefix+string(pt), 1)
	}
	return f, ok
}

// Clock returns the handle's wall clock, the real clock when the
// handle or its Wall is nil.
func (h *Hooks) Clock() timing.WallClock {
	if h == nil || h.Wall == nil {
		return timing.Real()
	}
	return h.Wall
}

// Now reads the handle's wall clock (see Clock).
func (h *Hooks) Now() time.Time { return h.Clock().Now() }

// NewHooks builds a Hooks with a tracer of the given capacity, a fresh
// metrics registry and clock as its Wall; nil means the real clock,
// tests pass timing.FakeWall for replayable traces.
func NewHooks(traceCapacity int, clock timing.WallClock) *Hooks {
	return &Hooks{
		Tracer:  NewTracer(traceCapacity),
		Metrics: NewMetrics(),
		Wall:    clock,
	}
}

// Span records a completed phase span with its virtual duration,
// stamped by the handle's clock.
func (h *Hooks) Span(phase Phase, id string, wave int, dur time.Duration, bytes int) {
	if h == nil || h.Tracer == nil {
		return
	}
	h.Tracer.Emit(Event{At: h.Now(), Kind: KindSpan, Phase: phase, ID: id, Wave: wave, Dur: dur, Bytes: bytes})
}

// Point records an instantaneous phase marker, stamped by the handle's
// clock.
func (h *Hooks) Point(phase Phase, id string, wave int) {
	if h == nil || h.Tracer == nil {
		return
	}
	h.Tracer.Emit(Event{At: h.Now(), Kind: KindPoint, Phase: phase, ID: id, Wave: wave})
}

// Count adds delta to the named counter.
func (h *Hooks) Count(name string, delta int64) {
	if h == nil {
		return
	}
	h.Metrics.Add(name, delta)
}

// GaugeFunc registers a snapshot-time-evaluated gauge.
func (h *Hooks) GaugeFunc(name string, fn func() int64) {
	if h == nil {
		return
	}
	h.Metrics.GaugeFunc(name, fn)
}

// Observe records a sample into the named histogram.
func (h *Hooks) Observe(name string, v float64) {
	if h == nil {
		return
	}
	h.Metrics.Observe(name, v)
}

// ObserveDur records a duration sample in microseconds — the unit
// every evaluation table uses.
func (h *Hooks) ObserveDur(name string, d time.Duration) {
	h.Observe(name, float64(d.Nanoseconds())/1000)
}
