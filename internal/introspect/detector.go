// The Detector consumes the event channel and sweeps kernel text
// between SMIs. Its trust model is KShot's own: SMM is the root of
// trust, so writes into executable memory are legitimate exactly when
// they happen inside an SMI window, and a patch-processing SMI is
// legitimate exactly when the trusted pipeline announced it first
// (ExpectSMI). Everything else is classified into a typed verdict.

package introspect

import (
	"fmt"
	"sync"
	"sync/atomic"
	"time"

	"kshot/internal/mem"
	"kshot/internal/obs"
)

// VerdictKind classifies one detection.
type VerdictKind uint8

const (
	// TamperDetected: kernel text changed outside any SMI window — an
	// exec-write event fired with the machine running, or the
	// frame-diff sweep found bytes no expected SMI wrote (the backstop
	// when the event itself was dropped).
	TamperDetected VerdictKind = iota + 1

	// StalePatchReplay: a patch-processing SMI fired that the trusted
	// pipeline never announced — the signature of an attacker
	// re-staging a captured patch artifact and raising the SMI itself.
	StalePatchReplay

	// ActivenessGroomed: the activeness check refused the same patch
	// too many consecutive times — the signature of an attacker
	// parking a vCPU inside the target to starve the patch out.
	ActivenessGroomed
)

// String names the verdict kind.
func (k VerdictKind) String() string {
	switch k {
	case TamperDetected:
		return "tamper-detected"
	case StalePatchReplay:
		return "stale-patch-replay"
	case ActivenessGroomed:
		return "activeness-groomed"
	default:
		return "unknown"
	}
}

// Verdict is one typed detection.
type Verdict struct {
	Kind   VerdictKind
	At     time.Time
	Detail string

	// TamperDetected evidence: the first suspicious write address (0
	// when only the frame diff caught it), the dirty frame base
	// addresses (empty when the baseline already absorbed the write),
	// and the event→detection latency (0 when no event survived).
	Addr    uint64
	Frames  []uint64
	Latency time.Duration
	Seq     uint64 // first evidencing event, 0 when none

	// StalePatchReplay evidence: the offending SMI command.
	Cmd uint8

	// ActivenessGroomed evidence: the starved patch.
	CVE string
}

// DetectorStats counts detector activity.
type DetectorStats struct {
	Sweeps     uint64
	Detections uint64
}

// DefaultGroomThreshold is the consecutive-refusal count that flags
// grooming: one refusal is normal contention, two a busy target; three
// in a row with no success in between is someone sitting on the
// function.
const DefaultGroomThreshold = 3

// Detector sweeps a window of physical memory (kernel text) against a
// last-known-good snapshot, classifying channel events and frame diffs
// into verdicts. All methods are safe on a nil receiver, so callers
// hold an optional *Detector and call unconditionally.
type Detector struct {
	ch    *Channel
	mem   *mem.Physical
	base  uint64
	size  uint64
	patch uint8 // the SMI command that legitimately rewrites kernel text

	mu       sync.Mutex
	good     *mem.Snapshot
	verdicts []Verdict
	expected int            // announced patch SMIs not yet observed
	refusals map[string]int // consecutive activeness refusals per CVE
	inSMI    bool           // event-stream SMI bracket, carried across sweeps
	windows  int            // open trusted SMI windows (Begin/EndTrustedWindow)
	scratch  []Event

	sweeps     atomic.Uint64
	detections atomic.Uint64
	obs        atomic.Pointer[obs.Hooks]

	loopMu sync.Mutex
	stop   chan struct{}
	done   chan struct{}
}

// NewDetector creates a detector sweeping [base, base+size) of m
// against a baseline taken now. ch supplies the typed events (it may
// be nil: the detector then degrades to pure frame-diff sweeping).
// patchCmd is the SMI command that legitimately modifies kernel text
// and therefore must be announced via ExpectSMI before it fires; core
// passes the process-package command.
func NewDetector(ch *Channel, m *mem.Physical, base, size uint64, patchCmd uint8) (*Detector, error) {
	if m == nil {
		return nil, fmt.Errorf("introspect: detector needs a memory to sweep")
	}
	return &Detector{
		ch:       ch,
		mem:      m,
		base:     base,
		size:     size,
		patch:    patchCmd,
		good:     m.Snapshot(),
		refusals: make(map[string]int),
	}, nil
}

// SetObserver installs (or, with nil, removes) observability hooks;
// sweeps and detections land on obs.CtrIntrospectSweeps/Detections and
// detection latency on obs.HistDetectLatency. The handle's clock
// stamps verdicts and measures their latency.
func (d *Detector) SetObserver(h *obs.Hooks) {
	if d == nil {
		return
	}
	d.obs.Store(h)
}

// BeginTrustedWindow marks the start of a pipeline-initiated SMI that
// legitimately rewrites the swept text. While any trusted window is
// open, Sweep defers the frame-diff backstop — a concurrent sweep
// would otherwise indict the patch's own half-written bytes against
// the stale baseline — but keeps classifying events (the SMI bracket
// and replay detection are unaffected). Windows nest.
func (d *Detector) BeginTrustedWindow() {
	if d == nil {
		return
	}
	d.mu.Lock()
	d.windows++
	d.mu.Unlock()
}

// EndTrustedWindow closes a trusted window and atomically re-snapshots
// the swept range as known-good, so no sweep can ever diff the
// window's text changes against the pre-window baseline. It does NOT
// discard pending events: an attacker write
// racing the window is absorbed into the snapshot but still classifies
// by its exec-write event on the next sweep.
func (d *Detector) EndTrustedWindow() {
	if d == nil {
		return
	}
	d.mu.Lock()
	if d.windows > 0 {
		d.windows--
	}
	d.good = d.mem.Snapshot()
	d.mu.Unlock()
}

// ExpectSMI announces one upcoming patch-processing SMI as
// pipeline-initiated. Sweep consumes announcements in order; a patch
// SMI with no outstanding announcement is a replay.
func (d *Detector) ExpectSMI() {
	if d == nil {
		return
	}
	d.mu.Lock()
	d.expected++
	d.mu.Unlock()
}

// RetractSMI withdraws the latest announcement: its SMI was refused
// before it entered SMM, so no SMI-enter will consume it.
func (d *Detector) RetractSMI() {
	if d == nil {
		return
	}
	d.mu.Lock()
	if d.expected > 0 {
		d.expected--
	}
	d.mu.Unlock()
}

// NoteActiveRefusal records one activeness refusal of the given patch;
// the threshold'th consecutive refusal raises ActivenessGroomed and
// resets the streak.
func (d *Detector) NoteActiveRefusal(cve string) {
	if d == nil {
		return
	}
	d.mu.Lock()
	defer d.mu.Unlock()
	d.refusals[cve]++
	if d.refusals[cve] >= DefaultGroomThreshold {
		d.refusals[cve] = 0
		d.raiseLocked(Verdict{
			Kind:   ActivenessGroomed,
			CVE:    cve,
			Detail: fmt.Sprintf("%d consecutive activeness refusals for %s", DefaultGroomThreshold, cve),
		})
	}
}

// NoteApplied records a successful apply or rollback of the given
// patch, ending any refusal streak.
func (d *Detector) NoteApplied(cve string) {
	if d == nil {
		return
	}
	d.mu.Lock()
	delete(d.refusals, cve)
	d.mu.Unlock()
}

// Verdicts returns a copy of every verdict raised so far.
func (d *Detector) Verdicts() []Verdict {
	if d == nil {
		return nil
	}
	d.mu.Lock()
	defer d.mu.Unlock()
	out := make([]Verdict, len(d.verdicts))
	copy(out, d.verdicts)
	return out
}

// TakeVerdicts returns every verdict raised so far and clears the
// list — the per-cycle harvest of a seeded campaign.
func (d *Detector) TakeVerdicts() []Verdict {
	if d == nil {
		return nil
	}
	d.mu.Lock()
	defer d.mu.Unlock()
	out := d.verdicts
	d.verdicts = nil
	return out
}

// Stats returns sweep/detection counts.
func (d *Detector) Stats() DetectorStats {
	if d == nil {
		return DetectorStats{}
	}
	return DetectorStats{Sweeps: d.sweeps.Load(), Detections: d.detections.Load()}
}

// raiseLocked appends a verdict (d.mu held) and counts it.
func (d *Detector) raiseLocked(v Verdict) {
	h := d.obs.Load()
	v.At = h.Now()
	d.verdicts = append(d.verdicts, v)
	d.detections.Add(1)
	h.Count(obs.CtrIntrospectDetections, 1)
	if v.Kind == TamperDetected && v.Latency > 0 {
		h.ObserveDur(obs.HistDetectLatency, v.Latency)
	}
}

// Sweep drains the event channel, classifies the events, and
// frame-diffs the swept window against the last-known-good snapshot.
// It returns the verdicts this sweep raised. Call it between SMIs
// (manually, or via Start's background loop); the event-stream SMI
// bracket carries across calls, so sweeping concurrently with an SMI
// in flight stays sound.
func (d *Detector) Sweep() []Verdict {
	if d == nil {
		return nil
	}
	d.mu.Lock()
	defer d.mu.Unlock()
	d.sweeps.Add(1)
	d.obs.Load().Count(obs.CtrIntrospectSweeps, 1)

	before := len(d.verdicts)

	// Classify the pending events in order. The channel is FIFO and
	// producers emit in causal order, so the inSMI bracket reconstructs
	// whether each exec-write happened under SMM.
	var suspect *Event // earliest out-of-window exec write
	d.scratch = d.ch.Drain(d.scratch[:0])
	for i := range d.scratch {
		ev := &d.scratch[i]
		switch ev.Kind {
		case KindSMIEnter:
			d.inSMI = true
			if ev.Cmd == d.patch {
				if d.expected > 0 {
					d.expected--
				} else {
					d.raiseLocked(Verdict{
						Kind:   StalePatchReplay,
						Cmd:    ev.Cmd,
						Seq:    ev.Seq,
						Detail: fmt.Sprintf("unannounced patch SMI %#02x", ev.Cmd),
					})
				}
			}
		case KindSMIExit:
			d.inSMI = false
		case KindExecWrite:
			in := ev.Addr >= d.base && ev.Addr < d.base+d.size
			if in && !d.inSMI && suspect == nil {
				suspect = ev
			}
		}
	}

	// Frame-diff backstop: bytes that differ from the baseline were
	// written by something other than an expected, rebaselined SMI —
	// this fires even when the exec-write event itself was dropped.
	// Deferred while a trusted SMI window is open: the window's own
	// writes are legitimate and EndTrustedWindow rebaselines before
	// the diff is next consulted.
	var frames []uint64
	if d.windows == 0 {
		idxs, err := d.mem.DiffFramesIn(d.good, d.base, d.size)
		if err != nil {
			idxs = nil // foreign snapshot after an external Restore; events still classify
		}
		frames = make([]uint64, len(idxs))
		for i, ix := range idxs {
			frames[i] = mem.FrameAddr(ix)
		}
	}
	if suspect != nil || len(frames) > 0 {
		v := Verdict{Kind: TamperDetected, Frames: frames}
		if suspect != nil {
			v.Addr = suspect.Addr
			v.Seq = suspect.Seq
			v.Latency = d.obs.Load().Now().Sub(suspect.At)
			v.Detail = fmt.Sprintf("exec write at %#x outside SMI window (%d dirty frames)", suspect.Addr, len(frames))
		} else {
			v.Detail = fmt.Sprintf("%d kernel.text frames differ from baseline (event dropped or silent)", len(frames))
		}
		d.raiseLocked(v)
		// Absorb the tamper into the baseline so one incident yields
		// one verdict, not one per sweep. Repair is SMM's job
		// (CmdIntrospect); detection's job is done.
		d.good = d.mem.Snapshot()
	}

	if len(d.verdicts) == before {
		return nil
	}
	out := make([]Verdict, len(d.verdicts)-before)
	copy(out, d.verdicts[before:])
	return out
}

// Start launches a background sweep loop with the given period,
// stopping when Stop is called. A second Start replaces the loop.
func (d *Detector) Start(period time.Duration) {
	if d == nil || period <= 0 {
		return
	}
	d.loopMu.Lock()
	defer d.loopMu.Unlock()
	d.stopLocked()
	stop := make(chan struct{})
	done := make(chan struct{})
	d.stop, d.done = stop, done
	go func() {
		defer close(done)
		t := time.NewTicker(period)
		defer t.Stop()
		for {
			select {
			case <-stop:
				return
			case <-t.C:
				d.Sweep()
			}
		}
	}()
}

// Stop halts the background sweep loop, if any, and waits for it.
func (d *Detector) Stop() {
	if d == nil {
		return
	}
	d.loopMu.Lock()
	defer d.loopMu.Unlock()
	d.stopLocked()
}

func (d *Detector) stopLocked() {
	if d.stop != nil {
		close(d.stop)
		<-d.done
		d.stop, d.done = nil, nil
	}
}
