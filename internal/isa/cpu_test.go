package isa

import (
	"errors"
	"testing"

	"kshot/internal/mem"
)

// testMachine loads an image into fresh physical memory with standard
// kernel-style permissions and returns a kernel-privilege CPU plus the
// stack top.
func testMachine(t *testing.T, img *Image) (*CPU, uint64) {
	t.Helper()
	m := mem.New(16 << 20)
	mustMapImage(t, m, img)
	if _, err := m.Map("stack", 1<<20, 64<<10, mem.Perms{Kernel: mem.PermRW, SMM: mem.PermRW}); err != nil {
		t.Fatal(err)
	}
	return New(m, mem.PrivKernel), 1<<20 + 64<<10
}

func mustMapImage(t *testing.T, m *mem.Physical, img *Image) {
	t.Helper()
	if _, err := m.Map("text", img.TextBase, uint64(len(img.Text)), mem.Perms{Kernel: mem.PermR | mem.PermX, SMM: mem.PermRWX}); err != nil {
		t.Fatal(err)
	}
	if err := m.Write(mem.PrivSMM, img.TextBase, img.Text); err != nil {
		t.Fatal(err)
	}
	dataLen := uint64(len(img.Data))
	if dataLen == 0 {
		dataLen = 8
	}
	// Data is not executable, as in the real kernel's mapping, so a
	// store to a global leaves the block cache warm.
	if _, err := m.Map("data", img.DataBase, dataLen, mem.Perms{Kernel: mem.PermRW, SMM: mem.PermRW}); err != nil {
		t.Fatal(err)
	}
	if len(img.Data) > 0 {
		if err := m.Write(mem.PrivSMM, img.DataBase, img.Data); err != nil {
			t.Fatal(err)
		}
	}
}

func linkAndRun(t *testing.T, src, fn string, args ...uint64) (uint64, error) {
	t.Helper()
	img, err := Link(MustParse(src), LinkOptions{TextBase: 0x10000, DataBase: 0x80000})
	if err != nil {
		t.Fatalf("link: %v", err)
	}
	cpu, stack := testMachine(t, img)
	sym, ok := img.Symbols.Lookup(fn)
	if !ok {
		t.Fatalf("no function %q", fn)
	}
	return cpu.Call(sym.Addr, stack, 100000, args...)
}

func TestArithmetic(t *testing.T) {
	src := `
.func compute
    mov r0, r1
    add r0, r2
    movi r3, 10
    mul r0, r3
    subi r0, 5
    ret
.endfunc
`
	got, err := linkAndRun(t, src, "compute", 3, 4)
	if err != nil {
		t.Fatal(err)
	}
	if want := uint64((3+4)*10 - 5); got != want {
		t.Errorf("compute = %d, want %d", got, want)
	}
}

func TestBranchesAndLoop(t *testing.T) {
	// sum 1..n via loop
	src := `
.func sum
    movi r0, 0
.loop:
    cmpi r1, 0
    jz .done
    add r0, r1
    subi r1, 1
    jmp .loop
.done:
    ret
.endfunc
`
	got, err := linkAndRun(t, src, "sum", 10)
	if err != nil {
		t.Fatal(err)
	}
	if got != 55 {
		t.Errorf("sum(10) = %d, want 55", got)
	}
}

func TestConditionals(t *testing.T) {
	src := `
.func sign     ; returns 1 if r1>5, 2 if <5, 3 if ==5 (unsigned-ish small values)
    cmpi r1, 5
    jg .gt
    jl .lt
    movi r0, 3
    ret
.gt:
    movi r0, 1
    ret
.lt:
    movi r0, 2
    ret
.endfunc
`
	cases := map[uint64]uint64{7: 1, 2: 2, 5: 3}
	for in, want := range cases {
		got, err := linkAndRun(t, src, "sign", in)
		if err != nil {
			t.Fatal(err)
		}
		if got != want {
			t.Errorf("sign(%d) = %d, want %d", in, got, want)
		}
	}
}

func TestCallsAndStack(t *testing.T) {
	src := `
.func double
    add r1, r1
    mov r0, r1
    ret
.endfunc
.func quad
    push r1
    call double
    mov r1, r0
    call double
    pop r1
    ret
.endfunc
`
	got, err := linkAndRun(t, src, "quad", 5)
	if err != nil {
		t.Fatal(err)
	}
	if got != 20 {
		t.Errorf("quad(5) = %d, want 20", got)
	}
}

func TestGlobals(t *testing.T) {
	src := `
.global counter 8
.func bump
    loadg r0, counter
    addi r0, 1
    storeg counter, r0
    ret
.endfunc
`
	img, err := Link(MustParse(src), LinkOptions{TextBase: 0x10000, DataBase: 0x80000})
	if err != nil {
		t.Fatal(err)
	}
	cpu, stack := testMachine(t, img)
	sym, _ := img.Symbols.Lookup("bump")
	for i := 0; i < 3; i++ {
		if _, err := cpu.Call(sym.Addr, stack, 1000); err != nil {
			t.Fatal(err)
		}
	}
	g, _ := img.Symbols.Lookup("counter")
	v, err := cpu.M.ReadU64(mem.PrivKernel, g.Addr)
	if err != nil || v != 3 {
		t.Errorf("counter = %d, %v; want 3", v, err)
	}
}

func TestLoadStoreDisplacement(t *testing.T) {
	src := `
.global arr 32
.func swap01      ; swap arr[0], arr[1] given r1 = &arr
    load r2, [r1]
    load r3, [r1+8]
    store [r1], r3
    store [r1+8], r2
    ret
.endfunc
`
	img, err := Link(MustParse(src), LinkOptions{TextBase: 0x10000, DataBase: 0x80000})
	if err != nil {
		t.Fatal(err)
	}
	cpu, stack := testMachine(t, img)
	arr, _ := img.Symbols.Lookup("arr")
	if err := cpu.M.WriteU64(mem.PrivKernel, arr.Addr, 111); err != nil {
		t.Fatal(err)
	}
	if err := cpu.M.WriteU64(mem.PrivKernel, arr.Addr+8, 222); err != nil {
		t.Fatal(err)
	}
	f, _ := img.Symbols.Lookup("swap01")
	if _, err := cpu.Call(f.Addr, stack, 1000, arr.Addr); err != nil {
		t.Fatal(err)
	}
	a, _ := cpu.M.ReadU64(mem.PrivKernel, arr.Addr)
	b, _ := cpu.M.ReadU64(mem.PrivKernel, arr.Addr+8)
	if a != 222 || b != 111 {
		t.Errorf("after swap: %d, %d", a, b)
	}
}

func TestTrap(t *testing.T) {
	_, err := linkAndRun(t, ".func boom\ntrap 42\nret\n.endfunc", "boom")
	var te *TrapError
	if !errors.As(err, &te) || te.Code != 42 {
		t.Fatalf("want trap 42, got %v", err)
	}
}

func TestDivideByZero(t *testing.T) {
	_, err := linkAndRun(t, ".func d\nmovi r2, 0\ndiv r1, r2\nret\n.endfunc", "d", 10)
	var ee *ExecError
	if !errors.As(err, &ee) {
		t.Fatalf("want exec error, got %v", err)
	}
}

func TestStepLimit(t *testing.T) {
	src := ".func spin\n.l:\njmp .l\n.endfunc"
	img, _ := Link(MustParse(src), LinkOptions{TextBase: 0x10000, DataBase: 0x80000})
	cpu, stack := testMachine(t, img)
	sym, _ := img.Symbols.Lookup("spin")
	_, err := cpu.Call(sym.Addr, stack, 100)
	if !errors.Is(err, ErrStepLimit) {
		t.Fatalf("want ErrStepLimit, got %v", err)
	}
}

func TestExecutePermissionEnforced(t *testing.T) {
	// Executing from a region without X faults: simulate the kernel
	// trying to execute from its RW data region.
	img, _ := Link(MustParse(".func f\nret\n.endfunc"), LinkOptions{TextBase: 0x10000, DataBase: 0x80000})
	cpu, stack := testMachine(t, img)
	cpu.Reg[RegSP] = stack
	if err := cpu.push(StopAddr); err != nil {
		t.Fatal(err)
	}
	cpu.RIP = 0x80000 // data region: kernel RW but not X
	err := cpu.Step()
	var f *mem.Fault
	if !errors.As(err, &f) || f.Access != mem.Execute {
		t.Fatalf("want execute fault, got %v", err)
	}
}

func TestCallTooManyArgs(t *testing.T) {
	img, _ := Link(MustParse(".func f\nret\n.endfunc"), LinkOptions{TextBase: 0x10000, DataBase: 0x80000})
	cpu, stack := testMachine(t, img)
	sym, _ := img.Symbols.Lookup("f")
	if _, err := cpu.Call(sym.Addr, stack, 100, 1, 2, 3, 4, 5, 6); err == nil {
		t.Error("six arguments accepted")
	}
}

func TestShiftAndLogic(t *testing.T) {
	src := `
.func f
    movi r2, 4
    shl r1, r2     ; r1 <<= 4
    movi r3, 0xf0
    and r1, r3
    movi r4, 1
    or r1, r4
    mov r0, r1
    movi r5, 2
    shr r0, r5     ; >>= 2
    ret
.endfunc
`
	got, err := linkAndRun(t, src, "f", 7)
	if err != nil {
		t.Fatal(err)
	}
	want := ((uint64(7)<<4)&0xf0 | 1) >> 2
	if got != want {
		t.Errorf("f(7) = %d, want %d", got, want)
	}
}

func TestXorZeroFlag(t *testing.T) {
	src := `
.func f
    mov r2, r1
    xor r1, r2    ; r1 = 0, ZF set
    jz .ok
    movi r0, 99
    ret
.ok:
    movi r0, 1
    ret
.endfunc
`
	got, err := linkAndRun(t, src, "f", 12345)
	if err != nil {
		t.Fatal(err)
	}
	if got != 1 {
		t.Errorf("xor did not set ZF (got %d)", got)
	}
}

func TestSaveRestoreState(t *testing.T) {
	img, _ := Link(MustParse(".func f\nmovi r1, 9\nret\n.endfunc"), LinkOptions{TextBase: 0x10000, DataBase: 0x80000})
	cpu, _ := testMachine(t, img)
	cpu.Reg[3] = 77
	cpu.RIP = 0x1234
	cpu.ZF = true
	s := cpu.Save()
	cpu.Reg[3] = 0
	cpu.RIP = 0
	cpu.ZF = false
	cpu.Restore(s)
	if cpu.Reg[3] != 77 || cpu.RIP != 0x1234 || !cpu.ZF {
		t.Error("state not restored")
	}
}

func TestInlinedExecutionMatchesCalled(t *testing.T) {
	// The same source linked with and without inlining must compute the
	// same results — the property that makes Type 2 patching sound.
	src := `
.func classify inline
    cmpi r1, 100
    jg .big
    movi r0, 1
    jmp .end
.big:
    movi r0, 2
.end:
    ret
.endfunc
.func top
    call classify
    addi r0, 10
    ret
.endfunc
`
	for _, inline := range []bool{false, true} {
		img, err := Link(MustParse(src), LinkOptions{TextBase: 0x10000, DataBase: 0x80000, Inline: inline})
		if err != nil {
			t.Fatal(err)
		}
		cpu, stack := testMachine(t, img)
		sym, _ := img.Symbols.Lookup("top")
		for in, want := range map[uint64]uint64{5: 11, 500: 12} {
			got, err := cpu.Call(sym.Addr, stack, 1000, in)
			if err != nil {
				t.Fatal(err)
			}
			if got != want {
				t.Errorf("inline=%v top(%d) = %d, want %d", inline, in, got, want)
			}
		}
	}
}

func TestFtraceExecutionTransparent(t *testing.T) {
	// Traced functions execute through __fentry__ and still work.
	src := ".func f\nmovi r0, 5\nret\n.endfunc"
	img, err := Link(MustParse(src), LinkOptions{TextBase: 0x10000, DataBase: 0x80000, Ftrace: true})
	if err != nil {
		t.Fatal(err)
	}
	cpu, stack := testMachine(t, img)
	sym, _ := img.Symbols.Lookup("f")
	got, err := cpu.Call(sym.Addr, stack, 1000)
	if err != nil || got != 5 {
		t.Fatalf("traced f() = %d, %v", got, err)
	}
}
