package introspect

import (
	"context"
	"testing"
	"time"

	"kshot/internal/mem"
	"kshot/internal/obs"
	"kshot/internal/timing"
)

const (
	dtBase = uint64(0x10000)
	dtSize = uint64(0x20000)
	dtCmd  = uint8(0x50)
)

// detRig wires a real Physical (introspected executable region) to a
// channel and detector on one fake wall clock.
type detRig struct {
	m    *mem.Physical
	ch   *Channel
	det  *Detector
	wall *timing.FakeWall
}

func newDetRig(t *testing.T, capacity int) *detRig {
	t.Helper()
	m := mem.New(1 << 20)
	if _, err := m.Map("text", dtBase, dtSize, mem.Perms{
		Kernel: mem.PermRWX, SMM: mem.PermRWX,
	}); err != nil {
		t.Fatal(err)
	}
	wall := timing.NewFakeWall()
	ch := NewChannel(capacity)
	ch.SetObserver(&obs.Hooks{Wall: wall})
	m.SetObserver(&obs.Hooks{Introspect: ch})
	det, err := NewDetector(ch, m, dtBase, dtSize, dtCmd)
	if err != nil {
		t.Fatal(err)
	}
	det.SetObserver(&obs.Hooks{Wall: wall})
	return &detRig{m: m, ch: ch, det: det, wall: wall}
}

func (r *detRig) write(t *testing.T, addr uint64, b []byte) {
	t.Helper()
	if err := r.m.Write(mem.PrivKernel, addr, b); err != nil {
		t.Fatal(err)
	}
}

func TestDetectorTamperOutsideSMI(t *testing.T) {
	r := newDetRig(t, 64)
	r.write(t, dtBase+0x40, []byte{0xCC})
	r.wall.Sleep(context.Background(), 5*time.Millisecond)

	vs := r.det.Sweep()
	if len(vs) != 1 || vs[0].Kind != TamperDetected {
		t.Fatalf("verdicts = %v, want one TamperDetected", vs)
	}
	v := vs[0]
	if v.Addr != dtBase+0x40 {
		t.Errorf("verdict addr = %#x, want %#x", v.Addr, dtBase+0x40)
	}
	if len(v.Frames) == 0 {
		t.Error("verdict carries no dirty frames")
	}
	if v.Latency != 5*time.Millisecond {
		t.Errorf("latency = %v, want 5ms on the fake wall", v.Latency)
	}
	// One incident, one verdict: the sweep rebaselined.
	if vs := r.det.Sweep(); len(vs) != 0 {
		t.Fatalf("second sweep re-raised: %v", vs)
	}
}

func TestDetectorLegitimateWriteInsideSMI(t *testing.T) {
	r := newDetRig(t, 64)
	r.det.ExpectSMI()
	r.ch.OnSMIEnter(dtCmd)
	r.write(t, dtBase+0x80, []byte{0x90, 0x90})
	r.ch.OnSMIExit(dtCmd, time.Millisecond)
	rebaseline(r.det) // what the pipeline does around a patch SMI
	if vs := r.det.Sweep(); len(vs) != 0 {
		t.Fatalf("announced SMI write raised %v", vs)
	}
}

// TestDetectorSMIBracketSpansSweeps sweeps in the middle of an SMI
// window: the bracket state must carry into the next sweep.
func TestDetectorSMIBracketSpansSweeps(t *testing.T) {
	r := newDetRig(t, 64)
	r.det.ExpectSMI()
	r.ch.OnSMIEnter(dtCmd)
	if vs := r.det.Sweep(); len(vs) != 0 {
		t.Fatalf("mid-SMI sweep raised %v", vs)
	}
	r.write(t, dtBase, []byte{0xAA})
	r.ch.OnSMIExit(dtCmd, time.Millisecond)
	rebaseline(r.det)
	if vs := r.det.Sweep(); len(vs) != 0 {
		t.Fatalf("write under carried-over SMI bracket raised %v", vs)
	}
}

// TestDetectorTrustedWindowDefersDiff pins the sweep-vs-patch race:
// a background sweep that fires after a pipeline SMI's text writes
// but before the post-SMI rebaseline must not indict the patch's own
// bytes. The trusted-window bracket defers the frame diff while open
// and closing it rebaselines atomically; tamper detection resumes at
// full strength afterwards.
func TestDetectorTrustedWindowDefersDiff(t *testing.T) {
	r := newDetRig(t, 64)

	// Pipeline announces and enters its SMI, writes text… and a sweep
	// fires before the window closes: silence, not tamper-detected.
	r.det.ExpectSMI()
	r.det.BeginTrustedWindow()
	r.ch.OnSMIEnter(dtCmd)
	r.write(t, dtBase+0x100, []byte{0xAA, 0xBB})
	if vs := r.det.Sweep(); len(vs) != 0 {
		t.Fatalf("sweep inside trusted window raised %v", vs)
	}
	r.ch.OnSMIExit(dtCmd, time.Millisecond)
	r.det.EndTrustedWindow()
	if vs := r.det.Sweep(); len(vs) != 0 {
		t.Fatalf("sweep after closed trusted window raised %v", vs)
	}

	// The backstop is deferred, not disabled: with the window closed,
	// a tamper whose exec-write event was lost still raises via the
	// frame diff.
	r.write(t, dtBase+0x200, []byte{0xCC})
	r.ch.Drain(nil) // simulate the event being lost before the sweep
	vs := r.det.Sweep()
	if len(vs) != 1 || vs[0].Kind != TamperDetected {
		t.Fatalf("post-window tamper verdicts = %v, want one TamperDetected", vs)
	}
	if len(vs[0].Frames) == 0 {
		t.Fatalf("post-window tamper carried no frame evidence: %+v", vs[0])
	}
}

// TestDetectorTrustedWindowNests: nested windows (repair inside a
// rollout) only re-enable the diff when the outermost closes. The
// writes ride inside a (non-patch) SMI bracket — the window defers
// only the frame diff, never event classification.
func TestDetectorTrustedWindowNests(t *testing.T) {
	r := newDetRig(t, 64)
	r.det.BeginTrustedWindow()
	r.det.BeginTrustedWindow()
	r.ch.OnSMIEnter(0)
	r.write(t, dtBase, []byte{0x01})
	r.det.EndTrustedWindow()
	r.write(t, dtBase+8, []byte{0x02})
	if vs := r.det.Sweep(); len(vs) != 0 {
		t.Fatalf("sweep inside outer trusted window raised %v", vs)
	}
	r.ch.OnSMIExit(0, 0)
	r.det.EndTrustedWindow()
	if vs := r.det.Sweep(); len(vs) != 0 {
		t.Fatalf("sweep after nested windows closed raised %v", vs)
	}
}

func TestDetectorStaleReplay(t *testing.T) {
	r := newDetRig(t, 64)
	// Announced SMI: clean.
	r.det.ExpectSMI()
	r.ch.OnSMIEnter(dtCmd)
	r.ch.OnSMIExit(dtCmd, 0)
	if vs := r.det.Sweep(); len(vs) != 0 {
		t.Fatalf("announced SMI raised %v", vs)
	}
	// Same command again with no announcement: replay.
	r.ch.OnSMIEnter(dtCmd)
	r.ch.OnSMIExit(dtCmd, 0)
	vs := r.det.Sweep()
	if len(vs) != 1 || vs[0].Kind != StalePatchReplay || vs[0].Cmd != dtCmd {
		t.Fatalf("verdicts = %v, want one StalePatchReplay for %#x", vs, dtCmd)
	}
	// Non-patch SMIs (key exchange, introspection) need no announcement.
	r.ch.OnSMIEnter(0x4B)
	r.ch.OnSMIExit(0x4B, 0)
	if vs := r.det.Sweep(); len(vs) != 0 {
		t.Fatalf("non-patch SMI raised %v", vs)
	}
}

// TestDetectorRebaselineDoesNotLaunderEvents is the design point that
// makes racing the patcher unprofitable: a tamper write that lands
// just before a legitimate rebaseline is absorbed into the frame-diff
// snapshot, but its event still classifies as out-of-window.
func TestDetectorRebaselineDoesNotLaunderEvents(t *testing.T) {
	r := newDetRig(t, 64)
	r.write(t, dtBase+0x100, []byte{0xEE})
	rebaseline(r.det) // diff is now clean; the event is not
	vs := r.det.Sweep()
	if len(vs) != 1 || vs[0].Kind != TamperDetected {
		t.Fatalf("verdicts = %v, want one TamperDetected from the event alone", vs)
	}
	if len(vs[0].Frames) != 0 {
		t.Errorf("frames = %v, want none (diff was rebaselined)", vs[0].Frames)
	}
}

// TestDetectorDiffBackstopCatchesDroppedEvent fills the tiny event
// buffer so the tamper write's event is dropped; the frame diff must
// still catch the damage.
func TestDetectorDiffBackstopCatchesDroppedEvent(t *testing.T) {
	r := newDetRig(t, 1)
	r.ch.OnSMIExit(0x4B, 0) // an earlier SMI's exit occupies the single slot
	r.write(t, dtBase+0x200, []byte{0xDD})
	if st := r.ch.Stats(); st.Dropped == 0 {
		t.Fatal("test setup: tamper event was not dropped")
	}
	vs := r.det.Sweep()
	if len(vs) != 1 || vs[0].Kind != TamperDetected {
		t.Fatalf("verdicts = %v, want one TamperDetected from the diff", vs)
	}
	if vs[0].Addr != 0 || len(vs[0].Frames) == 0 {
		t.Fatalf("verdict = %+v, want frame-only attribution", vs[0])
	}
}

func TestDetectorGroomThreshold(t *testing.T) {
	r := newDetRig(t, 64)
	r.det.NoteActiveRefusal("CVE-X")
	r.det.NoteActiveRefusal("CVE-X")
	if vs := r.det.Verdicts(); len(vs) != 0 {
		t.Fatalf("below-threshold refusals raised %v", vs)
	}
	r.det.NoteActiveRefusal("CVE-X") // threshold'th
	vs := r.det.TakeVerdicts()
	if len(vs) != 1 || vs[0].Kind != ActivenessGroomed || vs[0].CVE != "CVE-X" {
		t.Fatalf("verdicts = %v, want one ActivenessGroomed for CVE-X", vs)
	}
	// NoteApplied ends the streak: two refusals, an apply, two more.
	r.det.NoteActiveRefusal("CVE-Y")
	r.det.NoteActiveRefusal("CVE-Y")
	r.det.NoteApplied("CVE-Y")
	r.det.NoteActiveRefusal("CVE-Y")
	r.det.NoteActiveRefusal("CVE-Y")
	if vs := r.det.Verdicts(); len(vs) != 0 {
		t.Fatalf("interrupted streak raised %v", vs)
	}
}

func TestDetectorBackgroundLoop(t *testing.T) {
	m := mem.New(1 << 20)
	if _, err := m.Map("text", dtBase, dtSize, mem.Perms{
		Kernel: mem.PermRWX, SMM: mem.PermRWX,
	}); err != nil {
		t.Fatal(err)
	}
	ch := NewChannel(64) // background loop: real clock
	m.SetObserver(&obs.Hooks{Introspect: ch})
	det, err := NewDetector(ch, m, dtBase, dtSize, dtCmd)
	if err != nil {
		t.Fatal(err)
	}
	det.Start(time.Millisecond)
	defer det.Stop()
	if err := m.Write(mem.PrivKernel, dtBase+8, []byte{0x66}); err != nil {
		t.Fatal(err)
	}
	deadline := time.Now().Add(5 * time.Second)
	for len(det.Verdicts()) == 0 {
		if time.Now().After(deadline) {
			t.Fatal("background sweep never detected the tamper")
		}
		time.Sleep(time.Millisecond)
	}
	if vs := det.Verdicts(); vs[0].Kind != TamperDetected {
		t.Fatalf("verdict = %+v", vs[0])
	}
	det.Stop() // idempotent
}

func TestDetectorNilSafety(t *testing.T) {
	var d *Detector
	rebaseline(d)
	d.ExpectSMI()
	d.NoteActiveRefusal("x")
	d.NoteApplied("x")
	d.SetObserver(nil)
	d.Start(time.Millisecond)
	d.Stop()
	if vs := d.Sweep(); vs != nil {
		t.Fatalf("nil detector swept %v", vs)
	}
	if vs := d.Verdicts(); vs != nil {
		t.Fatalf("nil detector verdicts %v", vs)
	}
	if vs := d.TakeVerdicts(); vs != nil {
		t.Fatalf("nil detector take %v", vs)
	}
	if st := d.Stats(); st != (DetectorStats{}) {
		t.Fatalf("nil detector stats %+v", st)
	}
	if _, err := NewDetector(NewChannel(1), nil, 0, 0, dtCmd); err == nil {
		t.Fatal("NewDetector accepted nil memory")
	}
}

// rebaseline re-snapshots the swept window as known-good the way the
// trusted pipeline does, by closing a trusted window around its SMI.
func rebaseline(d *Detector) {
	d.BeginTrustedWindow()
	d.EndTrustedWindow()
}
