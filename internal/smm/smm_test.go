package smm

import (
	"errors"
	"sync"
	"testing"
	"time"

	"kshot/internal/isa"
	"kshot/internal/machine"
	"kshot/internal/mem"
	"kshot/internal/timing"
)

const smramBase = 0xF00_0000

func newTestPlatform(t *testing.T) (*machine.Machine, *Controller) {
	t.Helper()
	m, err := machine.New(machine.Config{NumVCPUs: 2})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(m.Stop)
	c, err := NewController(m, smramBase, &timing.Clock{}, timing.Calibrated())
	if err != nil {
		t.Fatal(err)
	}
	return m, c
}

// loadKernel maps a tiny kernel image for workload threads.
func loadKernel(t *testing.T, m *machine.Machine) *isa.Image {
	t.Helper()
	src := `
.global ticks 8
.func work
    loadg r0, ticks
    addi r0, 1
    storeg ticks, r0
    ret
.endfunc
`
	img, err := isa.Link(isa.MustParse(src), isa.LinkOptions{TextBase: 0x10_0000, DataBase: 0x40_0000})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := m.Mem.Map("ktext", img.TextBase, uint64(len(img.Text)), mem.Perms{Kernel: mem.PermR | mem.PermX, SMM: mem.PermRWX}); err != nil {
		t.Fatal(err)
	}
	if err := m.Mem.Write(mem.PrivSMM, img.TextBase, img.Text); err != nil {
		t.Fatal(err)
	}
	if _, err := m.Mem.Map("kdata", img.DataBase, 4096, mem.Perms{Kernel: mem.PermRW, SMM: mem.PermRWX}); err != nil {
		t.Fatal(err)
	}
	return img
}

// guestCall runs the image's work function on vCPU 0 in the
// background; the channel yields its error once it returns. While the
// machine is paused the call parks at its first instruction.
func guestCall(t *testing.T, m *machine.Machine, img *isa.Image) <-chan error {
	t.Helper()
	work, ok := img.Symbols.Lookup("work")
	if !ok {
		t.Fatal("no work symbol")
	}
	done := make(chan error, 1)
	go func() {
		_, err := m.VCPU(0).Call(work.Addr, 10000)
		done <- err
	}()
	return done
}

// awaitGuest fails the test unless the guest call returns promptly.
func awaitGuest(t *testing.T, done <-chan error, what string) {
	t.Helper()
	select {
	case err := <-done:
		if err != nil {
			t.Fatalf("guest call: %v", err)
		}
	case <-time.After(5 * time.Second):
		t.Fatalf("guest call still parked %s", what)
	}
}

func TestTriggerRunsHandlerPaused(t *testing.T) {
	m, c := newTestPlatform(t)
	img := loadKernel(t, m)
	var parked <-chan error
	ranEarly := false
	if err := c.Register(0x10, func(ctx *Context, arg uint64) error {
		// A guest call issued while the handler runs cannot execute an
		// instruction before RSM.
		parked = guestCall(t, m, img)
		select {
		case <-parked:
			ranEarly = true
			t.Error("guest ran while the handler held the machine")
		case <-time.After(20 * time.Millisecond):
		}
		if arg != 42 {
			t.Errorf("arg = %d", arg)
		}
		return nil
	}); err != nil {
		t.Fatal(err)
	}
	if err := c.Trigger(0x10, 42); err != nil {
		t.Fatal(err)
	}
	if !ranEarly {
		awaitGuest(t, parked, "after RSM")
	}
	if c.Entries() != 1 {
		t.Errorf("entries = %d", c.Entries())
	}
}

func TestUnclaimedSMI(t *testing.T) {
	_, c := newTestPlatform(t)
	err := c.Trigger(0x99, 0)
	if !errors.Is(err, ErrUnclaimedSMI) {
		t.Fatalf("got %v, want ErrUnclaimedSMI", err)
	}
}

func TestHandlerErrorPropagates(t *testing.T) {
	m, c := newTestPlatform(t)
	img := loadKernel(t, m)
	boom := errors.New("boom")
	if err := c.Register(1, func(*Context, uint64) error { return boom }); err != nil {
		t.Fatal(err)
	}
	if err := c.Trigger(1, 0); !errors.Is(err, boom) {
		t.Fatalf("got %v", err)
	}
	awaitGuest(t, guestCall(t, m, img), "after a handler error")
}

func TestLockPreventsHandlerInstall(t *testing.T) {
	_, c := newTestPlatform(t)
	if err := c.Lock(); err != nil {
		t.Fatal(err)
	}
	err := c.Register(2, func(*Context, uint64) error { return nil })
	if !errors.Is(err, ErrLocked) {
		t.Fatalf("post-lock Register = %v, want ErrLocked", err)
	}
	// Lock is idempotent.
	if err := c.Lock(); err != nil {
		t.Fatal(err)
	}
}

func TestLockedSMRAMUnreachableFromKernel(t *testing.T) {
	m, c := newTestPlatform(t)
	// Pre-lock: kernel may write SMRAM (firmware is still in charge).
	if err := m.Mem.Write(mem.PrivKernel, smramBase, []byte{1}); err != nil {
		t.Fatalf("pre-lock kernel write: %v", err)
	}
	if err := c.Lock(); err != nil {
		t.Fatal(err)
	}
	if err := m.Mem.Write(mem.PrivKernel, smramBase, []byte{2}); err == nil {
		t.Error("post-lock kernel write succeeded")
	}
	if err := m.Mem.Read(mem.PrivKernel, smramBase, make([]byte, 1)); err == nil {
		t.Error("post-lock kernel read succeeded")
	}
	if err := m.Mem.Read(mem.PrivUser, smramBase, make([]byte, 1)); err == nil {
		t.Error("post-lock user read succeeded")
	}
	// SMM always can.
	if err := m.Mem.Write(mem.PrivSMM, smramBase, []byte{3}); err != nil {
		t.Errorf("SMM write failed: %v", err)
	}
}

func TestStateSaveRestoreRoundTrip(t *testing.T) {
	m, c := newTestPlatform(t)
	// Give vCPUs distinctive state, trigger an SMI whose handler
	// scribbles on live registers, and check the RSM restore wins.
	v0 := m.VCPU(0)
	_ = v0 // state manipulation goes through States/RestoreStates

	if err := c.Register(3, func(ctx *Context, arg uint64) error {
		// A correct handler does not touch vCPU registers directly; the
		// controller must restore from SMRAM regardless.
		return nil
	}); err != nil {
		t.Fatal(err)
	}
	m.Pause()
	want := m.AppendStates(nil)
	want[0].Reg[5] = 0x1234_5678
	want[0].RIP = 0xBEEF
	want[0].ZF = true
	want[1].Reg[7] = 99
	if err := m.RestoreStates(want); err != nil {
		t.Fatal(err)
	}
	m.Resume()

	if err := c.Trigger(3, 0); err != nil {
		t.Fatal(err)
	}
	m.Pause()
	got := m.AppendStates(nil)
	m.Resume()
	for i := range want {
		if got[i] != want[i] {
			t.Errorf("vcpu %d state not preserved across SMI:\n got %+v\nwant %+v", i, got[i], want[i])
		}
	}
}

func TestHandlerSMMPrivilegeAccess(t *testing.T) {
	m, c := newTestPlatform(t)
	img := loadKernel(t, m)
	sym, _ := img.Symbols.Lookup("ticks")

	if err := c.Register(4, func(ctx *Context, arg uint64) error {
		// Handler reads and writes kernel data and SMRAM heap.
		v, err := ctx.ReadU64(sym.Addr)
		if err != nil {
			return err
		}
		if err := ctx.WriteU64(sym.Addr, v+100); err != nil {
			return err
		}
		return ctx.WriteU64(ctx.HeapBase(), 0xCAFE)
	}); err != nil {
		t.Fatal(err)
	}
	if err := c.Trigger(4, 0); err != nil {
		t.Fatal(err)
	}
	v, err := m.Mem.ReadU64(mem.PrivKernel, sym.Addr)
	if err != nil || v != 100 {
		t.Errorf("ticks = %d, %v; want 100", v, err)
	}
	h, err := m.Mem.ReadU64(mem.PrivSMM, c.HeapBase())
	if err != nil || h != 0xCAFE {
		t.Errorf("heap = %#x, %v", h, err)
	}
}

func TestSMIDuringWorkload(t *testing.T) {
	m, c := newTestPlatform(t)
	img := loadKernel(t, m)
	work, _ := img.Symbols.Lookup("work")

	if err := c.Register(5, func(*Context, uint64) error { return nil }); err != nil {
		t.Fatal(err)
	}

	stop := make(chan struct{})
	var wg sync.WaitGroup
	for i := 0; i < m.NumVCPUs(); i++ {
		wg.Add(1)
		go func(v *machine.VCPU) {
			defer wg.Done()
			for {
				select {
				case <-stop:
					return
				default:
				}
				if _, err := v.Call(work.Addr, 10000); err != nil {
					t.Errorf("work: %v", err)
					return
				}
			}
		}(m.VCPU(i))
	}
	for i := 0; i < 200; i++ {
		if err := c.Trigger(5, uint64(i)); err != nil {
			t.Fatalf("SMI %d: %v", i, err)
		}
	}
	close(stop)
	wg.Wait()
	if c.Entries() != 200 {
		t.Errorf("entries = %d, want 200", c.Entries())
	}
}

func TestClockAdvancesOnSMI(t *testing.T) {
	_, c := newTestPlatform(t)
	if err := c.Register(6, func(ctx *Context, _ uint64) error {
		ctx.Charge(ctx.Model().KeyGen, 0, 0)
		return nil
	}); err != nil {
		t.Fatal(err)
	}
	before := c.clock.Now()
	if err := c.Trigger(6, 0); err != nil {
		t.Fatal(err)
	}
	elapsed := c.clock.Now() - before
	model := c.Model()
	want := model.SMMEntry + model.SMMExit + model.KeyGen
	if elapsed != want {
		t.Errorf("virtual elapsed = %v, want %v", elapsed, want)
	}
}

func TestNilClockDefaults(t *testing.T) {
	m, err := machine.New(machine.Config{NumVCPUs: 1})
	if err != nil {
		t.Fatal(err)
	}
	defer m.Stop()
	c, err := NewController(m, smramBase, nil, timing.Calibrated())
	if err != nil {
		t.Fatal(err)
	}
	if c.clock == nil {
		t.Error("nil clock not defaulted")
	}
}
