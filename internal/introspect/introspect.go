// Package introspect is the event-driven kernel-integrity layer: a
// typed, bounded, drop-counting event channel fed by cheap nil-safe
// hooks in the memory, execution, and SMM layers, plus a Detector
// (detector.go) that sweeps kernel text between SMIs and classifies
// what it finds into typed verdicts.
//
// The paper's §V-D introspection is one-shot: tamper once, raise
// CmdIntrospect once, verify once. A production KShot faces an
// attacker who keeps acting while patching is in flight, so this
// package turns the existing snapshot/frame-diff and code-epoch
// machinery into continuous monitoring, modeled on sev-step's typed
// event channel: every write into executable memory, every code-epoch
// bump, every block-cache invalidation, and every SMI entry/exit
// becomes an Event. Producers never block — when the bounded buffer is
// full the event is counted as dropped, and the Detector's frame-diff
// sweep is the backstop that still catches what the dropped event
// described.
//
// Import shape: introspect imports mem and obs (the Detector diffs
// frames and both halves publish counters); the producing layers (mem,
// isa, smm) therefore must NOT import introspect. They call the one
// sink interface obs.Introspector, carried on their obs.Hooks handle;
// *Channel implements it, and core puts the channel on the handle it
// gives every layer.
package introspect

import (
	"sync/atomic"
	"time"

	"kshot/internal/obs"
)

// Config is the user-facing introspection configuration
// (kshot.WithIntrospection / core.Options.Introspection). The zero
// value enables introspection with defaults: a DefaultCapacity event
// buffer, manual sweeps only, step events disarmed.
type Config struct {
	// Capacity bounds the event buffer; <= 0 means DefaultCapacity.
	Capacity int

	// SweepEvery, when > 0, runs the Detector's background sweep loop
	// at this real-time period. Zero leaves sweeping to explicit
	// Detector.Sweep calls (deterministic tests) and to the pipeline's
	// own rebaseline points.
	SweepEvery time.Duration

	// ArmSteps enables per-unit step events from boot. They are the
	// only high-rate event kind; leave false unless the investigation
	// needs instruction-granularity ordering.
	ArmSteps bool

	// GroomThreshold overrides how many consecutive activeness
	// refusals of one patch raise ActivenessGroomed; <= 0 means
	// DefaultGroomThreshold.
	GroomThreshold int
}

// Kind classifies one introspection event.
type Kind uint8

const (
	// KindExecWrite is a write that landed in executable memory — a
	// page-access event in sev-step terms. Legitimate only inside an
	// SMI window (the SMM handler applying or reverting a patch);
	// anywhere else it is direct evidence of kernel-text tampering.
	KindExecWrite Kind = iota + 1

	// KindCodeEpoch is a code-epoch bump without byte attribution:
	// SetPerms or a snapshot Restore invalidated cached translations.
	KindCodeEpoch

	// KindCacheFlush is a vCPU block engine discarding its predecoded
	// cache after observing an epoch mismatch — the execution layer
	// noticing that code changed under it.
	KindCacheFlush

	// KindStep is one retired dispatch unit on a vCPU. Emitted only
	// while the channel is armed (Arm), since per-unit events are the
	// one hook with a per-instruction-scale rate.
	KindStep

	// KindSMIEnter and KindSMIExit bracket one SMI: enter fires before
	// the world switch pauses the machine, exit fires while it is
	// still paused, carrying the full virtual pause the OS paid.
	KindSMIEnter
	KindSMIExit
)

// String names the kind for verdict details and traces.
func (k Kind) String() string {
	switch k {
	case KindExecWrite:
		return "exec-write"
	case KindCodeEpoch:
		return "code-epoch"
	case KindCacheFlush:
		return "cache-flush"
	case KindStep:
		return "step"
	case KindSMIEnter:
		return "smi-enter"
	case KindSMIExit:
		return "smi-exit"
	default:
		return "unknown"
	}
}

// Event is one typed introspection event. Seq is a per-channel
// strictly increasing sequence number assigned at emit time (gaps mean
// nothing; drops are counted, not numbered); At is the wall time of
// emission, the anchor for detection-latency measurement.
type Event struct {
	Seq   uint64
	Kind  Kind
	At    time.Time
	CPU   int           // emitting vCPU, -1 when not CPU-attributed
	Addr  uint64        // exec-write: first byte written
	Len   int           // exec-write: bytes written; step: instructions retired
	Epoch uint64        // code epoch after the event (write/epoch/flush kinds)
	Cmd   uint8         // SMI command (enter/exit kinds)
	Pause time.Duration // SMI exit: virtual OS pause this SMI cost
}

// Stats is a channel accounting snapshot. At quiescence (no emit in
// flight) Emitted == Delivered + Buffered + Dropped exactly; the fuzz
// target holds the channel to that identity under arbitrary
// interleavings of emits and receives.
type Stats struct {
	Emitted   uint64 // events offered to the channel
	Delivered uint64 // events handed to a receiver
	Dropped   uint64 // events discarded because the buffer was full
	Buffered  uint64 // events currently waiting
}

// DefaultCapacity is the event-buffer size used when a Config leaves
// Capacity zero — roomy enough that a patch rollout's own events never
// drop, small enough that a runaway producer degrades to counted drops
// instead of unbounded memory.
const DefaultCapacity = 1024

// Tap observes every event synchronously at emit time, before the
// buffered hand-off (and regardless of whether the buffer drops it).
// The adversary package uses taps as its deterministic scheduler: a
// strike keyed to the k-th SMI event runs at exactly the same point of
// every run with the same seed. A tap that itself performs
// instrumented operations (memory writes, SMIs) re-enters the channel;
// taps must guard against their own reentry.
type Tap func(Event)

// Channel is the bounded, drop-counting event channel. All methods are
// safe on a nil receiver (they do nothing), so producing layers hold
// an optional *Channel-shaped sink and call unconditionally.
type Channel struct {
	ch chan Event

	seq       atomic.Uint64
	emitted   atomic.Uint64
	delivered atomic.Uint64
	dropped   atomic.Uint64

	armed atomic.Bool
	tap   atomic.Pointer[Tap]
	obs   atomic.Pointer[obs.Hooks]
}

// NewChannel creates a channel holding at most capacity events
// (DefaultCapacity when <= 0). Events are stamped by the installed
// handle's clock (obs.Hooks.Wall), the real clock when none is.
func NewChannel(capacity int) *Channel {
	if capacity <= 0 {
		capacity = DefaultCapacity
	}
	return &Channel{ch: make(chan Event, capacity)}
}

var _ obs.Introspector = (*Channel)(nil)

// SetObserver installs (or, with nil, removes) observability hooks;
// emits and drops are counted under obs.CtrIntrospectEvents/Drops and
// stamped by the handle's clock.
func (c *Channel) SetObserver(h *obs.Hooks) {
	if c == nil {
		return
	}
	c.obs.Store(h)
}

// SetTap installs (or, with nil, removes) the synchronous tap.
func (c *Channel) SetTap(t Tap) {
	if c == nil {
		return
	}
	if t == nil {
		c.tap.Store(nil)
		return
	}
	c.tap.Store(&t)
}

// Arm enables (or disables) per-unit step events. Disarmed is the
// default: step events are the only high-rate kind, so they are opt-in
// per investigation, like single-stepping in sev-step.
func (c *Channel) Arm(on bool) {
	if c == nil {
		return
	}
	c.armed.Store(on)
}

// StepArmed reports whether per-unit step events are wanted; the
// execution layer checks it before paying for the emit.
func (c *Channel) StepArmed() bool { return c != nil && c.armed.Load() }

// Stats returns the accounting snapshot.
func (c *Channel) Stats() Stats {
	if c == nil {
		return Stats{}
	}
	return Stats{
		Emitted:   c.emitted.Load(),
		Delivered: c.delivered.Load(),
		Dropped:   c.dropped.Load(),
		Buffered:  uint64(len(c.ch)),
	}
}

// TryRecv returns the oldest buffered event without blocking.
func (c *Channel) TryRecv() (Event, bool) {
	if c == nil {
		return Event{}, false
	}
	select {
	case ev := <-c.ch:
		c.delivered.Add(1)
		return ev, true
	default:
		return Event{}, false
	}
}

// Drain appends every currently buffered event to dst and returns it.
func (c *Channel) Drain(dst []Event) []Event {
	if c == nil {
		return dst
	}
	for {
		ev, ok := c.TryRecv()
		if !ok {
			return dst
		}
		dst = append(dst, ev)
	}
}

// emit stamps, taps, counts, and offers the event; a full buffer drops
// it (counted) rather than blocking the producer.
func (c *Channel) emit(ev Event) {
	if c == nil {
		return
	}
	h := c.obs.Load()
	ev.Seq = c.seq.Add(1)
	ev.At = h.Now()
	if t := c.tap.Load(); t != nil {
		(*t)(ev)
	}
	c.emitted.Add(1)
	h.Count(obs.CtrIntrospectEvents, 1)
	select {
	case c.ch <- ev:
	default:
		c.dropped.Add(1)
		h.Count(obs.CtrIntrospectDrops, 1)
	}
}

// OnExecWrite implements obs.Introspector: a write landed in
// executable memory, bumping the code epoch to epoch.
func (c *Channel) OnExecWrite(addr uint64, n int, epoch uint64) {
	c.emit(Event{Kind: KindExecWrite, CPU: -1, Addr: addr, Len: n, Epoch: epoch})
}

// OnCodeEpoch implements obs.Introspector: the code epoch moved
// without byte attribution (SetPerms, snapshot Restore).
func (c *Channel) OnCodeEpoch(epoch uint64) {
	c.emit(Event{Kind: KindCodeEpoch, CPU: -1, Epoch: epoch})
}

// OnCacheFlush implements obs.Introspector: a vCPU block engine
// discarded its predecoded cache at the given epoch.
func (c *Channel) OnCacheFlush(cpu int, epoch uint64) {
	c.emit(Event{Kind: KindCacheFlush, CPU: cpu, Epoch: epoch})
}

// OnStep implements obs.Introspector: one dispatch unit retired.
// Emitted only while armed, mirroring the producer-side gate so a
// disarm between check and call stays harmless.
func (c *Channel) OnStep(cpu int, rip uint64, retired int) {
	if !c.StepArmed() {
		return
	}
	c.emit(Event{Kind: KindStep, CPU: cpu, Addr: rip, Len: retired})
}

// OnSMIEnter implements obs.Introspector: an SMI is about to pause the
// machine.
func (c *Channel) OnSMIEnter(cmd uint8) {
	c.emit(Event{Kind: KindSMIEnter, CPU: -1, Cmd: cmd})
}

// OnSMIExit implements obs.Introspector: the SMI handler finished;
// pause is the full virtual OS pause it cost. The machine is still
// paused when this fires.
func (c *Channel) OnSMIExit(cmd uint8, pause time.Duration) {
	c.emit(Event{Kind: KindSMIExit, CPU: -1, Cmd: cmd, Pause: pause})
}
