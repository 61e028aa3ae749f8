package obs

import (
	"fmt"
	"io"
	"strings"
	"sync"
	"time"
)

// EventKind distinguishes span events (with a duration) from
// instantaneous markers.
type EventKind uint8

// Event kinds.
const (
	KindSpan EventKind = iota + 1
	KindPoint
)

// Event is one typed trace record. Events are fixed-size values so the
// ring buffer never allocates per emit.
type Event struct {
	// Seq is the global emission index (0-based), assigned by Emit.
	Seq uint64
	// At is the wall timestamp from the emitting handle's clock
	// (Hooks.Wall). Under timing.FakeWall it is deterministic.
	At    time.Time
	Kind  EventKind
	Phase Phase
	// ID labels the subject: a CVE, an SMI command, a wave index.
	ID   string
	Wave int
	// Dur is the span's virtual duration (KindSpan only).
	Dur time.Duration
	// Bytes is the payload size the span covered, when meaningful.
	Bytes int
}

// String renders the event as one deterministic log line.
func (e Event) String() string {
	var b strings.Builder
	fmt.Fprintf(&b, "#%06d %s %-11s", e.Seq, e.At.UTC().Format("15:04:05.000000"), e.Phase)
	if e.Wave >= 0 {
		fmt.Fprintf(&b, " wave=%d", e.Wave)
	}
	fmt.Fprintf(&b, " id=%s", e.ID)
	if e.Kind == KindSpan {
		fmt.Fprintf(&b, " dur=%sus", usString(e.Dur))
		if e.Bytes > 0 {
			fmt.Fprintf(&b, " bytes=%d", e.Bytes)
		}
	}
	return b.String()
}

func usString(d time.Duration) string {
	return fmt.Sprintf("%.3f", float64(d.Nanoseconds())/1000)
}

// Tracer is the fixed-capacity ring-buffer event log. Emit is bounded
// work under one short critical section — "lock-free-ish" in the sense
// that it never blocks on I/O, never allocates, and never grows; when
// the ring wraps, the oldest event is overwritten and counted dropped.
// All methods are safe on a nil receiver and for concurrent use.
type Tracer struct {
	mu      sync.Mutex
	buf     []Event
	emitted uint64
	dropped uint64
}

// NewTracer builds a tracer retaining at most capacity events
// (DefaultTraceCapacity if capacity <= 0).
func NewTracer(capacity int) *Tracer {
	if capacity <= 0 {
		capacity = DefaultTraceCapacity
	}
	return &Tracer{buf: make([]Event, 0, capacity)}
}

// Emit appends the event to the ring, stamping Seq; At is the caller's
// (Hooks.Span and Point stamp it from the handle's clock). On a full
// ring the oldest retained event is overwritten and the drop counter
// advances, so emitted == retained + dropped always holds.
func (t *Tracer) Emit(ev Event) {
	if t == nil {
		return
	}
	t.mu.Lock()
	ev.Seq = t.emitted
	if len(t.buf) < cap(t.buf) {
		t.buf = append(t.buf, ev)
	} else {
		t.buf[t.emitted%uint64(cap(t.buf))] = ev
		t.dropped++
	}
	t.emitted++
	t.mu.Unlock()
}

// TraceSnap is a consistent copy of the tracer's state.
type TraceSnap struct {
	// Events holds the retained events, oldest first.
	Events   []Event
	Emitted  uint64
	Dropped  uint64
	Capacity int
}

// Snapshot copies the retained events in emission order together with
// the counters, all under one critical section so the ring invariant
// (Emitted == Dropped + len(Events)) holds in every snapshot even
// while other goroutines keep emitting.
func (t *Tracer) Snapshot() TraceSnap {
	if t == nil {
		return TraceSnap{}
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	snap := TraceSnap{
		Emitted:  t.emitted,
		Dropped:  t.dropped,
		Capacity: cap(t.buf),
	}
	n := len(t.buf)
	snap.Events = make([]Event, 0, n)
	if t.emitted > uint64(n) {
		// The ring wrapped: the oldest retained event lives right
		// after the most recently written slot.
		start := t.emitted % uint64(n)
		snap.Events = append(snap.Events, t.buf[start:]...)
		snap.Events = append(snap.Events, t.buf[:start]...)
	} else {
		snap.Events = append(snap.Events, t.buf...)
	}
	return snap
}

// RenderText writes the snapshot as a deterministic text log: a header
// with the ring counters, then one line per retained event.
func (s TraceSnap) RenderText(w io.Writer) error {
	var b strings.Builder
	fmt.Fprintf(&b, "trace: %d emitted, %d retained, %d dropped (capacity %d)\n",
		s.Emitted, len(s.Events), s.Dropped, s.Capacity)
	for _, ev := range s.Events {
		b.WriteString(ev.String())
		b.WriteByte('\n')
	}
	_, err := io.WriteString(w, b.String())
	return err
}
