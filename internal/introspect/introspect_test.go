package introspect

import (
	"testing"

	"kshot/internal/mem"
	"kshot/internal/obs"
	"kshot/internal/timing"
)

func TestChannelAccounting(t *testing.T) {
	ch := NewChannel(2)

	ch.OnExecWrite(0x100, 1, 1)
	ch.OnExecWrite(0x200, 1, 2)
	ch.OnExecWrite(0x300, 1, 3) // buffer full: dropped, counted
	st := ch.Stats()
	if st.Emitted != 3 || st.Buffered != 2 || st.Dropped != 1 || st.Delivered != 0 {
		t.Fatalf("stats after emits = %+v", st)
	}

	ev, ok := ch.TryRecv()
	if !ok || ev.Kind != KindExecWrite || ev.Epoch != 1 {
		t.Fatalf("TryRecv = %+v, %v; want first exec-write event", ev, ok)
	}
	ev2, ok := ch.TryRecv()
	if !ok || ev2.Epoch != 2 || ev2.Seq <= ev.Seq {
		t.Fatalf("TryRecv out of order: %+v after %+v", ev2, ev)
	}
	if _, ok := ch.TryRecv(); ok {
		t.Fatal("TryRecv on empty channel succeeded")
	}
	st = ch.Stats()
	if st.Emitted != st.Delivered+st.Buffered+st.Dropped {
		t.Fatalf("accounting identity violated: %+v", st)
	}
	if st.Delivered != 2 {
		t.Fatalf("delivered = %d, want 2", st.Delivered)
	}
}

func TestChannelTapSeesDroppedEvents(t *testing.T) {
	ch := NewChannel(1)
	var tapped []Event
	ch.SetTap(func(ev Event) { tapped = append(tapped, ev) })

	ch.OnExecWrite(0x100, 4, 7)
	ch.OnExecWrite(0x200, 4, 8) // dropped from the buffer, still tapped
	if len(tapped) != 2 {
		t.Fatalf("tap saw %d events, want 2", len(tapped))
	}
	if tapped[1].Addr != 0x200 {
		t.Fatalf("tap event = %+v", tapped[1])
	}
	if st := ch.Stats(); st.Dropped != 1 {
		t.Fatalf("dropped = %d, want 1", st.Dropped)
	}

	ch.SetTap(nil)
	ch.OnSMIExit(0x50, 0)
	if len(tapped) != 2 {
		t.Fatal("removed tap still invoked")
	}
}

func TestChannelObserverCounters(t *testing.T) {
	ch := NewChannel(1)
	h := obs.NewHooks(16, timing.NewFakeWall())
	ch.SetObserver(h)
	ch.OnSMIEnter(0x50)
	ch.OnSMIExit(0x50, 0) // dropped
	if got := h.Metrics.Counter(obs.CtrIntrospectEvents).Value(); got != 2 {
		t.Errorf("%s = %d, want 2", obs.CtrIntrospectEvents, got)
	}
	if got := h.Metrics.Counter(obs.CtrIntrospectDrops).Value(); got != 1 {
		t.Errorf("%s = %d, want 1", obs.CtrIntrospectDrops, got)
	}
}

func TestChannelNilSafety(t *testing.T) {
	var ch *Channel
	ch.OnExecWrite(1, 2, 3)
	ch.OnSMIEnter(0x50)
	ch.OnSMIExit(0x50, 0)
	ch.SetTap(func(Event) {})
	ch.SetObserver(nil)
	if st := ch.Stats(); st != (Stats{}) {
		t.Fatalf("nil channel stats = %+v", st)
	}
	if _, ok := ch.TryRecv(); ok {
		t.Fatal("nil channel delivered an event")
	}
	if got := ch.Drain(nil); got != nil {
		t.Fatalf("nil channel drained %v", got)
	}
}

// TestChannelFedByMemoryHooks drives the real producer: writes through
// a mem.Physical with an introspected executable region.
func TestChannelFedByMemoryHooks(t *testing.T) {
	m := mem.New(1 << 20)
	if _, err := m.Map("text", 0x10000, 0x20000, mem.Perms{
		Kernel: mem.PermRWX, SMM: mem.PermRWX,
	}); err != nil {
		t.Fatal(err)
	}
	if _, err := m.Map("data", 0x40000, 0x10000, mem.Perms{
		Kernel: mem.PermRW, SMM: mem.PermRW,
	}); err != nil {
		t.Fatal(err)
	}
	ch := NewChannel(8)
	m.SetObserver(&obs.Hooks{Introspect: ch})

	if err := m.Write(mem.PrivKernel, 0x10040, []byte{1, 2, 3}); err != nil {
		t.Fatal(err)
	}
	ev, ok := ch.TryRecv()
	if !ok || ev.Kind != KindExecWrite || ev.Addr != 0x10040 || ev.Len != 3 {
		t.Fatalf("exec-write event = %+v, %v", ev, ok)
	}
	if ev.Epoch == 0 {
		t.Error("exec-write event missing code epoch")
	}

	// Data writes are not code; no event.
	if err := m.Write(mem.PrivKernel, 0x40000, []byte{9}); err != nil {
		t.Fatal(err)
	}
	if _, ok := ch.TryRecv(); ok {
		t.Fatal("data write produced an event")
	}
}
