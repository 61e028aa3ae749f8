// Package introspect is the event-driven kernel-integrity layer: a
// typed, bounded, drop-counting event channel fed by cheap nil-safe
// hooks in the memory and SMM layers, plus a Detector
// (detector.go) that sweeps kernel text between SMIs and classifies
// what it finds into typed verdicts.
//
// The paper's §V-D introspection is one-shot: tamper once, raise
// CmdIntrospect once, verify once. A production KShot faces an
// attacker who keeps acting while patching is in flight, so this
// package turns the existing snapshot/frame-diff and code-epoch
// machinery into continuous monitoring, modeled on sev-step's typed
// event channel: every write into executable memory and every SMI
// entry/exit becomes an Event — the three kinds the Detector and the
// adversary taps read. Producers never block — when the bounded buffer
// is full the incoming event is counted as dropped, and the Detector's
// frame-diff sweep is the backstop that still catches what the dropped
// event described.
//
// Import shape: introspect imports mem and obs (the Detector diffs
// frames and both halves publish counters); the producing layers (mem,
// smm) therefore must NOT import introspect. They call the one
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
// buffer and manual sweeps only.
type Config struct {
	// Capacity bounds the event buffer; <= 0 means DefaultCapacity.
	Capacity int

	// SweepEvery, when > 0, runs the Detector's background sweep loop
	// at this real-time period. Zero leaves sweeping to explicit
	// Detector.Sweep calls (deterministic tests) and to the pipeline's
	// own rebaseline points.
	SweepEvery time.Duration
}

// Kind classifies one introspection event.
type Kind uint8

const (
	// KindExecWrite is a write that landed in executable memory — a
	// page-access event in sev-step terms. Legitimate only inside an
	// SMI window (the SMM handler applying or reverting a patch);
	// anywhere else it is direct evidence of kernel-text tampering.
	KindExecWrite Kind = iota + 1

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
	Addr  uint64        // exec-write: first byte written
	Len   int           // exec-write: bytes written
	Epoch uint64        // exec-write: code epoch after the write
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

	tap atomic.Pointer[Tap]
	obs atomic.Pointer[obs.Hooks]
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
// the incoming event (counted) rather than blocking the producer, so
// the events already buffered are kept.
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
	c.emit(Event{Kind: KindExecWrite, Addr: addr, Len: n, Epoch: epoch})
}

// OnSMIEnter implements obs.Introspector: an SMI is about to pause the
// machine.
func (c *Channel) OnSMIEnter(cmd uint8) {
	c.emit(Event{Kind: KindSMIEnter, Cmd: cmd})
}

// OnSMIExit implements obs.Introspector: the SMI handler finished;
// pause is the full virtual OS pause it cost. The machine is still
// paused when this fires.
func (c *Channel) OnSMIExit(cmd uint8, pause time.Duration) {
	c.emit(Event{Kind: KindSMIExit, Cmd: cmd, Pause: pause})
}
