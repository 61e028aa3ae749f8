package isa

import (
	"encoding/binary"
	"errors"
	"strings"
	"testing"

	"kshot/internal/mem"
)

// dualRig links src twice into two identical machines: one executed by
// the oracle interpreter, one by the block engine. Everything the two
// runs can observe starts out byte-identical.
func dualRig(t *testing.T, src string, opts LinkOptions) (*Image, *CPU, *Engine, uint64) {
	t.Helper()
	if opts.TextBase == 0 {
		opts.TextBase = 0x10000
	}
	if opts.DataBase == 0 {
		opts.DataBase = 0x80000
	}
	img, err := Link(MustParse(src), opts)
	if err != nil {
		t.Fatalf("link: %v", err)
	}
	oracle, stack := testMachine(t, img)
	engineCPU, _ := testMachine(t, img)
	return img, oracle, NewEngine(engineCPU), stack
}

// callBoth calls fn under both engines and requires identical results,
// error text, retired-step counts, and full architectural state.
func callBoth(t *testing.T, img *Image, oracle *CPU, e *Engine, stack uint64, fn string, maxSteps int, args ...uint64) (uint64, error) {
	t.Helper()
	sym, ok := img.Symbols.Lookup(fn)
	if !ok {
		t.Fatalf("no function %q", fn)
	}
	ov, oerr := oracle.Call(sym.Addr, stack, maxSteps, args...)
	ev, eerr := e.Call(sym.Addr, stack, maxSteps, args...)
	if errText(oerr) != errText(eerr) {
		t.Fatalf("%s: error mismatch: oracle %q vs blocks %q", fn, errText(oerr), errText(eerr))
	}
	if ov != ev {
		t.Fatalf("%s: result mismatch: oracle %d vs blocks %d", fn, ov, ev)
	}
	if oracle.Steps != e.C.Steps {
		t.Fatalf("%s: retired-step mismatch: oracle %d vs blocks %d", fn, oracle.Steps, e.C.Steps)
	}
	if os, es := oracle.Save(), e.C.Save(); os != es {
		t.Fatalf("%s: state mismatch:\noracle %+v\nblocks %+v", fn, os, es)
	}
	return ev, eerr
}

func TestEngineOracleParityPrograms(t *testing.T) {
	cases := []struct {
		name     string
		src      string
		fn       string
		maxSteps int
		argSets  [][]uint64
	}{
		{"arith", `
.func compute
    mov r0, r1
    add r0, r2
    movi r3, 10
    mul r0, r3
    subi r0, 5
    ret
.endfunc
`, "compute", 1000, [][]uint64{{3, 4}, {0, 0}}},
		{"loop", `
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
`, "sum", 10000, [][]uint64{{10}, {0}, {100}}},
		{"calls", `
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
`, "quad", 1000, [][]uint64{{5}}},
		{"globals", `
.global counter 8
.func bump
    loadg r0, counter
    addi r0, 1
    storeg counter, r0
    ret
.endfunc
`, "bump", 1000, [][]uint64{{}, {}, {}}},
		{"trap", `
.func boom
    movi r0, 7
    trap 42
    ret
.endfunc
`, "boom", 1000, [][]uint64{{}}},
		{"div-zero", `
.func d
    movi r2, 0
    div r1, r2
    ret
.endfunc
`, "d", 1000, [][]uint64{{10}}},
		{"hlt", `
.func h
    nop
    hlt
.endfunc
`, "h", 1000, [][]uint64{{}}},
		{"step-limit", `
.func spin
.l:
    addi r0, 1
    jmp .l
.endfunc
`, "spin", 100, [][]uint64{{}}},
		{"memory", `
.global arr 32
.func rot
    load r2, [r1]
    load r3, [r1+8]
    load r4, [r1+16]
    store [r1], r3
    store [r1+8], r4
    store [r1+16], r2
    load r0, [r1]
    ret
.endfunc
`, "rot", 1000, nil}, // args filled below with the symbol address
	}

	followsLinks := map[string]bool{"loop": true, "step-limit": true}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			img, oracle, e, stack := dualRig(t, tc.src, LinkOptions{})
			argSets := tc.argSets
			if argSets == nil {
				arr, ok := img.Symbols.Lookup("arr")
				if !ok {
					t.Fatal("no arr symbol")
				}
				for _, m := range []*mem.Physical{oracle.M, e.C.M} {
					for i := uint64(0); i < 3; i++ {
						if err := m.WriteU64(mem.PrivKernel, arr.Addr+8*i, 100+i); err != nil {
							t.Fatal(err)
						}
					}
				}
				argSets = [][]uint64{{arr.Addr}, {arr.Addr}}
			}
			for _, args := range argSets {
				callBoth(t, img, oracle, e, stack, tc.fn, tc.maxSteps, args...)
			}
			// Loops run many units, so their parity covers block links,
			// which lockstep's per-unit rewind never follows.
			if followsLinks[tc.name] && e.links == 0 {
				t.Fatalf("%s: a multi-unit run followed no block link", tc.name)
			}
		})
	}
}

// TestFusedCallRet covers the ftrace-prologue superinstruction: linking
// with Ftrace gives every function a `call __fentry__` whose callee is
// a bare ret — the call/ret pair must fuse into one two-step pred that
// does not terminate the block.
func TestFusedCallRet(t *testing.T) {
	src := `
.func f
    movi r0, 5
    addi r0, 2
    ret
.endfunc
`
	img, oracle, e, stack := dualRig(t, src, LinkOptions{Ftrace: true})
	if got, err := callBoth(t, img, oracle, e, stack, "f", 1000); err != nil || got != 7 {
		t.Fatalf("traced f() = %d, %v", got, err)
	}
	sym, _ := img.Symbols.Lookup("f")
	b := e.blocks[sym.Addr]
	if b == nil {
		t.Fatal("no cached block at traced function entry")
	}
	p := &b.preds[0]
	if p.op != OpCall || p.steps != 2 {
		t.Fatalf("entry pred op=%v steps=%d, want fused call+ret (steps 2)", p.op, p.steps)
	}
	// Fusion must not end the block: the body follows in the same block.
	if len(b.preds) < 2 {
		t.Fatalf("block has %d preds; fused prologue should be followed by the body", len(b.preds))
	}
}

// TestUnfusedCall: a call whose callee is not a bare ret stays a plain
// block terminator.
func TestUnfusedCall(t *testing.T) {
	src := `
.func helper
    movi r0, 9
    ret
.endfunc
.func f
    call helper
    addi r0, 1
    ret
.endfunc
`
	img, oracle, e, stack := dualRig(t, src, LinkOptions{})
	if got, err := callBoth(t, img, oracle, e, stack, "f", 1000); err != nil || got != 10 {
		t.Fatalf("f() = %d, %v", got, err)
	}
	sym, _ := img.Symbols.Lookup("f")
	b := e.blocks[sym.Addr]
	if b == nil {
		t.Fatal("no cached block at f")
	}
	last := &b.preds[len(b.preds)-1]
	if last.op != OpCall || last.steps != 1 {
		t.Fatalf("call pred op=%v steps=%d, want unfused terminator (steps 1)", last.op, last.steps)
	}
}

// TestFusedFlagsJcc covers the ALU/cmp+jcc superinstruction in both its
// taken and untaken directions, and the unfused jcc forms (preceded by
// a non-flag-setter, and as a block leader).
func TestFusedFlagsJcc(t *testing.T) {
	src := `
.func classify
    cmpi r1, 100
    jg .big
    movi r0, 1
    ret
.big:
    movi r0, 2
    ret
.endfunc
`
	img, oracle, e, stack := dualRig(t, src, LinkOptions{})
	for _, in := range []uint64{5, 500, 100} {
		callBoth(t, img, oracle, e, stack, "classify", 1000, in)
	}
	sym, _ := img.Symbols.Lookup("classify")
	b := e.blocks[sym.Addr]
	if b == nil {
		t.Fatal("no cached block at classify")
	}
	p := &b.preds[0]
	if p.op != OpCmpi || p.op2 != OpJg || p.steps != 2 {
		t.Fatalf("entry pred op=%v op2=%v steps=%d, want fused cmpi+jg", p.op, p.op2, p.steps)
	}

	// Unfused: the jcc follows a mov (not a flag setter), and — via the
	// jmp — is also entered as a block leader.
	src2 := `
.func g
    cmpi r1, 1
    mov r2, r1
    jz .one
    movi r0, 10
    ret
.one:
    movi r0, 11
    ret
.endfunc
.func h
    cmpi r1, 1
    jmp .check
.check:
    jz .one
    movi r0, 20
    ret
.one:
    movi r0, 21
    ret
.endfunc
`
	img2, oracle2, e2, stack2 := dualRig(t, src2, LinkOptions{})
	for _, in := range []uint64{0, 1} {
		callBoth(t, img2, oracle2, e2, stack2, "g", 1000, in)
		callBoth(t, img2, oracle2, e2, stack2, "h", 1000, in)
	}
	sym2, _ := img2.Symbols.Lookup("g")
	b2 := e2.blocks[sym2.Addr]
	if b2 == nil {
		t.Fatal("no cached block at g")
	}
	last := &b2.preds[len(b2.preds)-1]
	if last.op2 != 0 || last.steps != 1 {
		t.Fatalf("jcc after mov fused (op=%v op2=%v steps=%d), must stay unfused", last.op, last.op2, last.steps)
	}
}

// TestJmpChainFolding covers the trampoline superinstruction: a jmp
// whose target is another jmp folds up to maxChainHops deep, retiring
// one step per folded hop; a self-loop folds safely up to the cap.
func TestJmpChainFolding(t *testing.T) {
	src := `
.func f
    jmp .a
.dead:
    movi r0, 1
    ret
.a:
    jmp .b
.b:
    jmp .done
.done:
    movi r0, 42
    ret
.endfunc
`
	img, oracle, e, stack := dualRig(t, src, LinkOptions{})
	if got, err := callBoth(t, img, oracle, e, stack, "f", 1000); err != nil || got != 42 {
		t.Fatalf("f() = %d, %v", got, err)
	}
	sym, _ := img.Symbols.Lookup("f")
	b := e.blocks[sym.Addr]
	if b == nil {
		t.Fatal("no cached block at f")
	}
	p := &b.preds[0]
	if p.op != OpJmp || p.steps != 3 {
		t.Fatalf("chain pred op=%v steps=%d, want 3-hop folded jmp", p.op, p.steps)
	}
	done, _ := img.Symbols.Lookup("f")
	_ = done

	// Self-loop: folding must cap, execution must hit the step limit in
	// lockstep with the oracle.
	src2 := ".func spin\n.l:\njmp .l\n.endfunc"
	img2, oracle2, e2, stack2 := dualRig(t, src2, LinkOptions{})
	if _, err := callBoth(t, img2, oracle2, e2, stack2, "spin", 100); !errors.Is(err, ErrStepLimit) {
		t.Fatalf("spin: want ErrStepLimit, got %v", err)
	}
	sym2, _ := img2.Symbols.Lookup("spin")
	if b2 := e2.blocks[sym2.Addr]; b2 != nil && b2.preds[0].steps > maxChainHops {
		t.Fatalf("self-loop folded %d hops, cap is %d", b2.preds[0].steps, maxChainHops)
	}
}

// TestEpochInvalidationRedecode is the core cache-coherence property: a
// trampoline write into a cached function's text (exactly what patch
// application does) must flush the engine's cache, and the next
// dispatch must execute the rewritten code.
func TestEpochInvalidationRedecode(t *testing.T) {
	src := `
.func f
    movi r0, 1
    ret
.endfunc
.func f_v2
    movi r0, 2
    ret
.endfunc
`
	img, oracle, e, stack := dualRig(t, src, LinkOptions{})
	if got, err := callBoth(t, img, oracle, e, stack, "f", 1000); err != nil || got != 1 {
		t.Fatalf("pre-patch f() = %d, %v", got, err)
	}
	f, _ := img.Symbols.Lookup("f")
	v2, _ := img.Symbols.Lookup("f_v2")
	if e.blocks[f.Addr] == nil {
		t.Fatal("f's block not cached before the patch")
	}
	rel, err := JmpRel32To(f.Addr, v2.Addr)
	if err != nil {
		t.Fatal(err)
	}
	tramp := EncodeJmpRel32(rel)
	flushesBefore := e.Stats().Flushes
	for _, m := range []*mem.Physical{oracle.M, e.C.M} {
		if err := m.Write(mem.PrivSMM, f.Addr, tramp); err != nil {
			t.Fatalf("trampoline write: %v", err)
		}
	}
	if got, err := callBoth(t, img, oracle, e, stack, "f", 1000); err != nil || got != 2 {
		t.Fatalf("post-patch f() = %d, %v (stale block executed?)", got, err)
	}
	if e.Stats().Flushes == flushesBefore {
		t.Fatal("trampoline write did not flush the block cache")
	}
}

// TestSelfModifyingStoreEndsUnit: code that rewrites its own upcoming
// instruction mid-block. The engine's post-store epoch check must end
// the unit so the next dispatch decodes the new bytes — observationally
// identical to the oracle, which naturally fetches them.
func TestSelfModifyingStoreEndsUnit(t *testing.T) {
	run := func(exec func(c *CPU, entry, stack uint64) (uint64, error)) (uint64, uint64, *Engine) {
		m := mem.New(1 << 20)
		if _, err := m.Map("rwx", 0x1000, 0x1000, mem.Perms{SMM: mem.PermRWX}); err != nil {
			t.Fatal(err)
		}
		if _, err := m.Map("stack", 0x4000, 0x1000, mem.Perms{SMM: mem.PermRW}); err != nil {
			t.Fatal(err)
		}
		// Replacement bytes: addi r0, 1 (6 bytes) + 2 nops = exactly 8.
		repl := append(MustEncode(Inst{Op: OpAddi, Dst: 0, Imm: 1}), byte(OpNop), byte(OpNop))
		patchWord := binary.LittleEndian.Uint64(repl)

		entry := uint64(0x1000)
		// movi r0, 100; movi r2, patchWord; strg [target], r2;
		// target: trap 9 + 6 nops (8 bytes, overwritten); ret
		code := MustEncode(
			Inst{Op: OpMovi, Dst: 0, Imm: 100},
			Inst{Op: OpMovi, Dst: 2, Imm: int64(patchWord)},
		)
		target := entry + uint64(len(code)) + LenAbs
		code = append(code, MustEncode(Inst{Op: OpStrg, Src: 2, Imm: int64(target)})...)
		code = append(code, MustEncode(Inst{Op: OpTrap, Imm: 9})...)
		for len(code) < int(target-entry)+8 {
			code = append(code, byte(OpNop))
		}
		code = append(code, MustEncode(Inst{Op: OpRet})...)
		if err := m.Write(mem.PrivSMM, entry, code); err != nil {
			t.Fatal(err)
		}
		c := New(m, mem.PrivSMM)
		got, err := exec(c, entry, 0x5000)
		if err != nil {
			t.Fatalf("self-modifying run: %v", err)
		}
		return got, c.Steps, nil
	}

	oGot, oSteps, _ := run(func(c *CPU, entry, stack uint64) (uint64, error) {
		return c.Call(entry, stack, 1000)
	})
	var eng *Engine
	eGot, eSteps, _ := run(func(c *CPU, entry, stack uint64) (uint64, error) {
		eng = NewEngine(c)
		return eng.Call(entry, stack, 1000)
	})
	if oGot != eGot || oSteps != eSteps {
		t.Fatalf("self-modifying code: oracle (%d, %d steps) vs blocks (%d, %d steps)",
			oGot, oSteps, eGot, eSteps)
	}
	if want := uint64(101); eGot != want {
		t.Fatalf("patched instruction did not execute: got %d, want %d", eGot, want)
	}
	if eng.Stats().Flushes == 0 {
		t.Fatal("self-modifying store did not flush the block cache")
	}
}

// TestDataStoreFlushesOnlyWhenExecutable: a store to a global leaves
// the block cache warm while the data region is not executable, and
// flushes it on every call once the region is remapped with X (any
// privilege's X makes a store a code modification), with the oracle's
// results either way.
func TestDataStoreFlushesOnlyWhenExecutable(t *testing.T) {
	img, oracle, e, stack := dualRig(t, `
.global counter 8
.func bump
    loadg r0, counter
    addi r0, 1
    storeg counter, r0
    ret
.endfunc
`, LinkOptions{})
	calls := func() uint64 {
		before := e.Stats().Flushes
		for range 3 {
			callBoth(t, img, oracle, e, stack, "bump", 1000)
		}
		return e.Stats().Flushes - before
	}
	calls() // warm the cache
	if n := calls(); n != 0 {
		t.Fatalf("stores to non-executable data flushed the cache %d times", n)
	}
	for _, m := range []*mem.Physical{oracle.M, e.C.M} {
		if err := m.SetPerms("data", mem.Perms{Kernel: mem.PermRW, SMM: mem.PermRWX}); err != nil {
			t.Fatal(err)
		}
	}
	if n := calls(); n < 3 {
		t.Fatalf("3 stores to executable data flushed the cache %d times, want one each", n)
	}
}

// TestBudgetSemantics: a unit never retires more than its budget, a
// fused pred that cannot fit falls back to a single oracle step, and a
// mid-block stop commits RIP at the next unexecuted instruction.
func TestBudgetSemantics(t *testing.T) {
	src := `
.func f
    movi r1, 1
    movi r2, 2
    cmpi r1, 1
    jz .eq
    movi r0, 0
    ret
.eq:
    movi r0, 9
    ret
.endfunc
`
	img, oracle, e, stack := dualRig(t, src, LinkOptions{})
	sym, _ := img.Symbols.Lookup("f")

	prep := func(c *CPU) {
		c.Reg = [NumRegs]uint64{}
		c.Reg[RegSP] = stack
		if err := c.push(StopAddr); err != nil {
			t.Fatal(err)
		}
		c.RIP = sym.Addr
	}

	// Budget 3 covers the two movis but not the fused cmpi+jz (2 more
	// steps): the unit stops before it with RIP on the cmpi.
	prep(e.C)
	n, err := e.RunUnit(3)
	if err != nil || n != 2 {
		t.Fatalf("RunUnit(3) = %d, %v; want 2 retired (stop before fused pred)", n, err)
	}
	prep(oracle)
	for i := 0; i < 2; i++ {
		if err := oracle.Step(); err != nil {
			t.Fatal(err)
		}
	}
	if os, es := oracle.Save(), e.C.Save(); os != es {
		t.Fatalf("mid-block stop state mismatch:\noracle %+v\nblocks %+v", os, es)
	}

	// Budget 1 with the fused pred up next: single oracle-step fallback.
	fb := e.Stats().Fallbacks
	n, err = e.RunUnit(1)
	if err != nil || n != 1 {
		t.Fatalf("RunUnit(1) = %d, %v; want exactly 1", n, err)
	}
	if e.Stats().Fallbacks != fb+1 {
		t.Fatal("budget-constrained fused pred did not fall back to Step")
	}
	if err := oracle.Step(); err != nil {
		t.Fatal(err)
	}
	if os, es := oracle.Save(), e.C.Save(); os != es {
		t.Fatalf("fallback state mismatch:\noracle %+v\nblocks %+v", os, es)
	}
}

// TestEngineCacheStats: repeated execution hits the cache.
func TestEngineCacheStats(t *testing.T) {
	src := ".func f\nmovi r0, 3\nret\n.endfunc"
	img, oracle, e, stack := dualRig(t, src, LinkOptions{})
	for i := 0; i < 5; i++ {
		callBoth(t, img, oracle, e, stack, "f", 1000)
	}
	st := e.Stats()
	if st.Decodes == 0 || st.Hits == 0 {
		t.Fatalf("stats %+v: want decodes and hits after repeated calls", st)
	}
}

// TestLockstepParity: the lockstep runner executes real programs to the
// same result as a plain oracle, verifying units as it goes.
func TestLockstepParity(t *testing.T) {
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
	img, err := Link(MustParse(src), LinkOptions{TextBase: 0x10000, DataBase: 0x80000})
	if err != nil {
		t.Fatal(err)
	}
	oracle, ostack := testMachine(t, img)
	c, stack := testMachine(t, img)
	ls := NewLockstep(c)
	sym, _ := img.Symbols.Lookup("sum")

	want, err := oracle.Call(sym.Addr, ostack, 10000, 10)
	if err != nil {
		t.Fatal(err)
	}

	c.Reg = [NumRegs]uint64{}
	c.Reg[RegSP] = stack
	c.Reg[1] = 10
	if err := c.push(StopAddr); err != nil {
		t.Fatal(err)
	}
	c.RIP = sym.Addr
	for i := 0; i < 1000 && !c.Done(); i++ {
		if _, err := ls.RunUnit(64); err != nil {
			t.Fatalf("lockstep unit: %v", err)
		}
	}
	if !c.Done() {
		t.Fatal("lockstep run did not complete")
	}
	if c.Reg[0] != want {
		t.Fatalf("lockstep sum(10) = %d, oracle says %d", c.Reg[0], want)
	}
	if ls.units == 0 {
		t.Fatal("no units verified")
	}
}

// TestLockstepDetectsDivergence proves the differential check is not
// vacuous: a deliberately corrupted cached block must be reported as a
// DivergenceError naming the failing comparison.
func TestLockstepDetectsDivergence(t *testing.T) {
	src := ".func f\nmovi r0, 1\nmovi r1, 2\nret\n.endfunc"
	img, err := Link(MustParse(src), LinkOptions{TextBase: 0x10000, DataBase: 0x80000})
	if err != nil {
		t.Fatal(err)
	}
	c, stack := testMachine(t, img)
	ls := NewLockstep(c)
	sym, _ := img.Symbols.Lookup("f")

	c.Reg = [NumRegs]uint64{}
	c.Reg[RegSP] = stack
	if err := c.push(StopAddr); err != nil {
		t.Fatal(err)
	}
	c.RIP = sym.Addr

	// Plant a corrupted block: same shape the decoder would produce,
	// but with a wrong immediate — a model of a block-engine bug.
	eng := ls.Engine()
	b := eng.decodeBlock(sym.Addr)
	if b == nil {
		t.Fatal("decodeBlock failed")
	}
	b.preds[0].imm = 999
	eng.blocks[sym.Addr] = b
	eng.epoch = c.M.CodeEpoch()

	_, err = ls.RunUnit(64)
	var div *DivergenceError
	if !errors.As(err, &div) {
		t.Fatalf("corrupted block not detected: err = %v", err)
	}
	if div.What != "architectural state mismatch" {
		t.Fatalf("divergence classified as %q, want architectural state mismatch", div.What)
	}
	if !strings.Contains(div.Error(), "architectural state mismatch") {
		t.Fatalf("DivergenceError text %q lacks the failing comparison", div.Error())
	}
}

// TestDispatchNames pins the mode names String prints.
func TestDispatchNames(t *testing.T) {
	for d, want := range map[Dispatch]string{DispatchBlocks: "blocks", DispatchOracle: "oracle", DispatchLockstep: "lockstep", 7: "dispatch(7)"} {
		if got := d.String(); got != want {
			t.Errorf("Dispatch(%d).String() = %q, want %q", int(d), got, want)
		}
	}
	if DispatchBlocks != 0 {
		t.Error("DispatchBlocks must be the zero value (the default)")
	}
}

// TestLinkedSuccessorInvalidation pins the block-link shortcut: a link
// is followed only within the code epoch it was recorded in, and only
// to a block that starts at RIP. Lockstep cannot check this, because
// its per-unit memory rewind flushes the cache before every unit.
func TestLinkedSuccessorInvalidation(t *testing.T) {
	src := `
.func f
    movi r0, 1
    cmpi r1, 0
    jz .skip
    addi r0, 10
    ret
.skip:
    ret
.endfunc
.func g
    movi r0, 7
    ret
.endfunc
`
	img, oracle, e, stack := dualRig(t, src, LinkOptions{})
	f, _ := img.Symbols.Lookup("f")
	g, _ := img.Symbols.Lookup("g")
	prep := func(c *CPU, entry uint64, args ...uint64) {
		c.Reg = [NumRegs]uint64{}
		c.Reg[RegSP] = stack
		copy(c.Reg[1:], args)
		if err := c.push(StopAddr); err != nil {
			t.Fatal(err)
		}
		c.RIP = entry
	}
	same := func(what string) {
		t.Helper()
		if oracle.Steps != e.C.Steps {
			t.Fatalf("%s: retired-step mismatch: oracle %d vs blocks %d", what, oracle.Steps, e.C.Steps)
		}
		if os, es := oracle.Save(), e.C.Save(); os != es {
			t.Fatalf("%s: state mismatch:\noracle %+v\nblocks %+v", what, os, es)
		}
	}

	// Warm A (f's entry block, whose jz falls through) and B (the
	// fall-through block) until A links to B.
	for i := 0; i < 3; i++ {
		if got, _ := callBoth(t, img, oracle, e, stack, "f", 1000, 1); got != 11 {
			t.Fatalf("warm f(1) = %d, want 11", got)
		}
	}
	a := e.blocks[f.Addr]
	if a == nil {
		t.Fatal("A not cached")
	}
	b := e.blocks[a.End()]
	if b == nil || (a.succ[0] != b && a.succ[1] != b) {
		t.Fatalf("A does not link to its fall-through B after warm-up: succ %v", a.succ)
	}
	hits := e.Stats().Hits
	linksBefore := e.links
	callBoth(t, img, oracle, e, stack, "f", 1000, 1)
	if e.links == linksBefore {
		t.Fatal("a warm f(1) followed no link")
	}
	if e.Stats().Hits-hits != 2 {
		t.Fatalf("warm f(1): %d hits, want 2 (a linked dispatch counts as a hit)", e.Stats().Hits-hits)
	}

	// Run A alone, so the next unit would follow A's link to B; then
	// rewrite B, which bumps the code epoch. The stale B must not run.
	prep(oracle, f.Addr, 1)
	prep(e.C, f.Addr, 1)
	n, err := e.RunUnit(64)
	if err != nil || e.C.RIP != b.Start() {
		t.Fatalf("unit A: retired %d, rip %#x, err %v; want rip at B %#x", n, e.C.RIP, err, b.Start())
	}
	for i := 0; i < n; i++ {
		if err := oracle.Step(); err != nil {
			t.Fatal(err)
		}
	}
	same("after unit A")
	addi20 := MustEncode(Inst{Op: OpAddi, Dst: 0, Imm: 20})
	for _, m := range []*mem.Physical{oracle.M, e.C.M} {
		if err := m.Write(mem.PrivSMM, b.Start(), addi20); err != nil {
			t.Fatal(err)
		}
	}
	oerr, eerr := oracle.Run(1000), e.Run(1000)
	if oerr != nil || eerr != nil {
		t.Fatalf("run after rewriting B: oracle %v, blocks %v", oerr, eerr)
	}
	same("after rewriting B")
	if got := e.C.Reg[0]; got != 21 {
		t.Fatalf("f(1) after rewriting B mid-call = %d, want 21 (stale linked block ran?)", got)
	}

	// Run from A in the new epoch.
	for i := 0; i < 3; i++ {
		if got, _ := callBoth(t, img, oracle, e, stack, "f", 1000, 1); got != 21 {
			t.Fatalf("f(1) after rewriting B = %d, want 21", got)
		}
	}

	// Restore a state whose RIP is g, not A's cached successor, right
	// after A ran: the link must not be taken.
	prep(oracle, g.Addr)
	prep(e.C, g.Addr)
	st := e.C.Save()
	prep(e.C, f.Addr, 1)
	if _, err := e.RunUnit(64); err != nil || e.prev == nil || e.prev.Start() != f.Addr {
		t.Fatalf("unit A: err %v, prev %v", err, e.prev)
	}
	e.C.Restore(st)
	steps := e.C.Steps
	oracle.Steps = steps
	oerr, eerr = oracle.Run(1000), e.Run(1000)
	if oerr != nil || eerr != nil {
		t.Fatalf("run from restored state: oracle %v, blocks %v", oerr, eerr)
	}
	same("from restored state")
	if got := e.C.Reg[0]; got != 7 {
		t.Fatalf("g() from restored state = %d, want 7 (A's link taken?)", got)
	}
}
