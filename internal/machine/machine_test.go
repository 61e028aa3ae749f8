package machine

import (
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"kshot/internal/isa"
	"kshot/internal/mem"
)

const testSrc = `
.global counter 8
.func bump
    loadg r0, counter
    addi r0, 1
    storeg counter, r0
    ret
.endfunc
.func addmul
    mov r0, r1
    add r0, r2
    movi r3, 3
    mul r0, r3
    ret
.endfunc
.global buf 64
.func checksum    ; (addr, nwords) -> sum of words, syscall-shaped
    movi r0, 0
.l:
    cmpi r2, 0
    jz .d
    load r3, [r1]
    add r0, r3
    addi r1, 8
    subi r2, 1
    jmp .l
.d:
    loadg r5, counter
    addi r5, 1
    storeg counter, r5
    ret
.endfunc
.func spinny      ; busy loop r1 times then return r1
    mov r0, r1
.l:
    cmpi r1, 0
    jz .d
    subi r1, 1
    jmp .l
.d:
    ret
.endfunc
`

// newTestMachine boots a machine with the test image loaded. Data is
// not executable, as in the real kernel's mapping, so a store to a
// global leaves the block cache warm.
func newTestMachine(t testing.TB, n int) (*Machine, *isa.Image) {
	t.Helper()
	m, err := New(Config{NumVCPUs: n})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(m.Stop)
	img, err := isa.Link(isa.MustParse(testSrc), isa.LinkOptions{TextBase: 0x10_0000, DataBase: 0x40_0000})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := m.Mem.Map("ktext", img.TextBase, uint64(len(img.Text)), mem.Perms{Kernel: mem.PermR | mem.PermX, SMM: mem.PermRWX}); err != nil {
		t.Fatal(err)
	}
	if err := m.Mem.Write(mem.PrivSMM, img.TextBase, img.Text); err != nil {
		t.Fatal(err)
	}
	if _, err := m.Mem.Map("kdata", img.DataBase, 4096, mem.Perms{Kernel: mem.PermRW, SMM: mem.PermRW}); err != nil {
		t.Fatal(err)
	}
	if err := m.Mem.Write(mem.PrivSMM, img.DataBase, img.Data); err != nil {
		t.Fatal(err)
	}
	return m, img
}

func entry(t *testing.T, img *isa.Image, name string) uint64 {
	t.Helper()
	s, ok := img.Symbols.Lookup(name)
	if !ok {
		t.Fatalf("no symbol %q", name)
	}
	return s.Addr
}

func TestCallOnVCPU(t *testing.T) {
	m, img := newTestMachine(t, 2)
	got, err := m.VCPU(0).Call(entry(t, img, "addmul"), 1000, 2, 3)
	if err != nil {
		t.Fatal(err)
	}
	if got != 15 {
		t.Errorf("addmul(2,3) = %d, want 15", got)
	}
}

func TestConcurrentCallsAcrossVCPUs(t *testing.T) {
	m, img := newTestMachine(t, 4)
	e := entry(t, img, "bump")
	var wg sync.WaitGroup
	const perCPU = 50
	for i := 0; i < m.NumVCPUs(); i++ {
		wg.Add(1)
		go func(v *VCPU) {
			defer wg.Done()
			for j := 0; j < perCPU; j++ {
				if _, err := v.Call(e, 10000); err != nil {
					t.Errorf("bump: %v", err)
					return
				}
			}
		}(m.VCPU(i))
	}
	wg.Wait()
	sym, _ := img.Symbols.Lookup("counter")
	// NOTE: bump is not atomic; with multiple vCPUs updates may race
	// (exactly as unlocked kernel code would). The counter must be
	// positive and at most the total number of calls.
	v, err := m.Mem.ReadU64(mem.PrivKernel, sym.Addr)
	if err != nil {
		t.Fatal(err)
	}
	if v == 0 || v > perCPU*uint64(m.NumVCPUs()) {
		t.Errorf("counter = %d out of range", v)
	}
}

func TestPauseQuiescesMachine(t *testing.T) {
	m, img := newTestMachine(t, 4)
	e := entry(t, img, "spinny")

	var running atomic.Int64
	var wg sync.WaitGroup
	for i := 0; i < m.NumVCPUs(); i++ {
		wg.Add(1)
		go func(v *VCPU) {
			defer wg.Done()
			running.Add(1)
			defer running.Add(-1)
			if _, err := v.Call(e, 1<<30, 300_000); err != nil {
				t.Errorf("spinny: %v", err)
			}
		}(m.VCPU(i))
	}

	// Let them get going, then pause and check quiescence: vCPU states
	// must not change while paused.
	time.Sleep(5 * time.Millisecond)
	m.Pause()
	s1 := m.AppendStates(nil)
	time.Sleep(5 * time.Millisecond)
	s2 := m.AppendStates(nil)
	for i := range s1 {
		if s1[i] != s2[i] {
			t.Errorf("vcpu %d state changed while paused", i)
		}
	}
	m.Resume()
	wg.Wait()
}

func TestStateSaveRestoreAcrossPause(t *testing.T) {
	m, img := newTestMachine(t, 2)
	e := entry(t, img, "spinny")

	done := make(chan error, 1)
	go func() {
		_, err := m.VCPU(0).Call(e, 1<<30, 300_000)
		done <- err
	}()
	time.Sleep(2 * time.Millisecond)

	m.Pause()
	states := m.AppendStates(nil)
	// Clobber registers (as a handler bug would), then restore.
	m.VCPU(0).cpu.Reg[1] = 0xdead
	if err := m.RestoreStates(states); err != nil {
		t.Fatal(err)
	}
	m.Resume()
	if err := <-done; err != nil {
		t.Fatalf("session failed after pause/restore: %v", err)
	}

	if err := m.RestoreStates(states[:1]); err == nil {
		t.Error("RestoreStates with wrong count succeeded")
	}
}

func TestRepeatedPauseResume(t *testing.T) {
	m, img := newTestMachine(t, 2)
	e := entry(t, img, "bump")
	stop := make(chan struct{})
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		for {
			select {
			case <-stop:
				return
			default:
				if _, err := m.VCPU(0).Call(e, 10000); err != nil {
					t.Errorf("bump: %v", err)
					return
				}
			}
		}
	}()
	for i := 0; i < 100; i++ {
		m.Pause()
		m.Resume()
	}
	close(stop)
	wg.Wait()
}

func TestConcurrentPausersSerialize(t *testing.T) {
	m, _ := newTestMachine(t, 2)
	var inHandler atomic.Int32
	var wg sync.WaitGroup
	for i := 0; i < 8; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			m.Pause()
			if n := inHandler.Add(1); n != 1 {
				t.Errorf("%d pausers active simultaneously", n)
			}
			time.Sleep(100 * time.Microsecond)
			inHandler.Add(-1)
			m.Resume()
		}()
	}
	wg.Wait()
}

func TestStop(t *testing.T) {
	m, img := newTestMachine(t, 1)
	e := entry(t, img, "bump")
	if _, err := m.VCPU(0).Call(e, 1000); err != nil {
		t.Fatal(err)
	}
	m.Stop()
	m.Stop() // idempotent
	if _, err := m.VCPU(0).Call(e, 1000); err != ErrStopped {
		t.Errorf("Call after Stop = %v, want ErrStopped", err)
	}
}

func TestTooManyArgs(t *testing.T) {
	m, img := newTestMachine(t, 1)
	if _, err := m.VCPU(0).Call(entry(t, img, "bump"), 10, 1, 2, 3, 4, 5, 6); err == nil {
		t.Error("six args accepted")
	}
}

func TestDefaults(t *testing.T) {
	m, err := New(Config{})
	if err != nil {
		t.Fatal(err)
	}
	defer m.Stop()
	if m.NumVCPUs() != 4 {
		t.Errorf("default vCPUs = %d, want 4", m.NumVCPUs())
	}
	// Physical memory ends exactly at DefaultPhysSize: the last byte
	// maps, the byte past it does not.
	if _, err := m.Mem.Map("last", DefaultPhysSize-1, 1, mem.Perms{Kernel: mem.PermR}); err != nil {
		t.Errorf("default phys size is below %d: %v", DefaultPhysSize, err)
	}
	if _, err := m.Mem.Map("past", DefaultPhysSize, 1, mem.Perms{Kernel: mem.PermR}); err == nil {
		t.Errorf("default phys size is above %d", DefaultPhysSize)
	}
}

// TestStopRacesCall stops a machine while four goroutines keep calling
// vCPU 0. A Call that loses the race with Stop must return ErrStopped:
// it must neither panic (a send on a closed channel) nor hang.
func TestStopRacesCall(t *testing.T) {
	for iter := 0; iter < 300; iter++ {
		m, img := newTestMachine(t, 1)
		e := entry(t, img, "spinny")
		var started, finished sync.WaitGroup
		for g := 0; g < 4; g++ {
			started.Add(1)
			finished.Add(1)
			go func() {
				defer finished.Done()
				started.Done()
				for {
					_, err := m.VCPU(0).Call(e, 10000, 20)
					if err == ErrStopped {
						return
					}
					if err != nil {
						t.Errorf("call: %v", err)
						return
					}
				}
			}()
		}
		started.Wait()
		m.Stop()
		done := make(chan struct{})
		go func() { finished.Wait(); close(done) }()
		select {
		case <-done:
		case <-time.After(10 * time.Second):
			t.Fatalf("iteration %d: a Call racing Stop never returned", iter)
		}
	}
}

// TestPauseLandsMidSession pauses a machine 200 times while both of its
// vCPUs run one long session each. The gate brackets a whole session,
// so a pause lands only because each vCPU polls for it between
// dispatch units: every pause must return while both sessions are
// still running, and the pauses must not change what the sessions
// compute or how many steps they retire.
func TestPauseLandsMidSession(t *testing.T) {
	const (
		iters  = 250_000 // spinny retires 4 steps per iteration, plus 4
		rounds = 200
	)
	m, img := newTestMachine(t, 2)
	e := entry(t, img, "spinny")
	n := m.NumVCPUs()

	// The unpaused reference run. Both sessions run the same call, so
	// one run gives the result and retired steps each must match.
	wantRet, err := m.VCPU(0).Call(e, 1<<30, iters)
	if err != nil {
		t.Fatal(err)
	}
	wantSteps := m.VCPU(0).cpu.Steps
	if wantSteps < 1_000_000 {
		t.Fatalf("session retires %d steps, want at least 10^6", wantSteps)
	}
	base := make([]uint64, n)
	for i := range base {
		base[i] = m.VCPU(i).cpu.Steps
	}

	gotRet := make([]uint64, n)
	errs := make([]error, n)
	var wg sync.WaitGroup
	for i := 0; i < n; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			gotRet[i], errs[i] = m.VCPU(i).Call(e, 1<<30, iters)
		}(i)
	}

	// steps reads each vCPU's retired steps within this session; the
	// machine must be paused.
	steps := func() []uint64 {
		s := make([]uint64, n)
		for i := range s {
			s[i] = m.VCPU(i).cpu.Steps - base[i]
		}
		return s
	}
	// Wait until both sessions have retired a step.
	for started := false; !started; {
		m.Pause()
		started = true
		for _, s := range steps() {
			started = started && s > 0
		}
		m.Resume()
	}
	var states []isa.State
	for r := 0; r < rounds; r++ {
		m.Pause()
		states = m.AppendStates(states[:0])
		got := steps()
		m.Resume()
		if len(states) != n {
			t.Fatalf("round %d: %d states for %d vCPUs", r, len(states), n)
		}
		for i, s := range got {
			if s >= wantSteps {
				t.Fatalf("round %d: pause returned after vCPU %d's session ended (%d of %d steps)", r, i, s, wantSteps)
			}
		}
	}
	wg.Wait()
	for i := 0; i < n; i++ {
		if errs[i] != nil {
			t.Fatalf("vCPU %d: %v", i, errs[i])
		}
		if gotRet[i] != wantRet {
			t.Errorf("vCPU %d returned %d, unpaused run %d", i, gotRet[i], wantRet)
		}
		if s := m.VCPU(i).cpu.Steps - base[i]; s != wantSteps {
			t.Errorf("vCPU %d retired %d steps, unpaused run %d", i, s, wantSteps)
		}
	}
}

// BenchmarkVCPUCall times one warm syscall-shaped call through
// VCPU.Call: the hop to the runner goroutine, the session's gate
// bracket and the block engine over an 8-word checksum loop. It
// allocates nothing.
func BenchmarkVCPUCall(b *testing.B) {
	m, img := newTestMachine(b, 1)
	fn, _ := img.Symbols.Lookup("checksum")
	buf, _ := img.Symbols.Lookup("buf")
	v := m.VCPU(0)
	if _, err := v.Call(fn.Addr, 1000, buf.Addr, 8); err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := v.Call(fn.Addr, 1000, buf.Addr, 8); err != nil {
			b.Fatal(err)
		}
	}
}
