package isa

import (
	"errors"
	"testing"

	"kshot/internal/mem"
)

// FuzzBlockDecode feeds arbitrary byte streams to the block decoder,
// mapped as kernel text. The contract under fuzzing:
//
//   - decodeBlock never panics and never reads past what Fetch allows;
//   - a decoded block's preds tile the linear decode disasm.go/Step
//     would perform over the same bytes: each pred starts on an
//     instruction boundary with that instruction's op, its in-line
//     steps span exactly the instructions up to its next address, and
//     the last one ends exactly at Block.End();
//   - executing the stream under the block engine is observationally
//     identical to the oracle interpreter: the lockstep runner drives
//     both over the same memory and fails on any state, step-count,
//     error, or memory divergence;
//   - the same holds for a whole multi-unit run on two separate
//     memories, where the engine follows block links (lockstep's
//     per-unit rewind flushes the cache, so it never does).
func FuzzBlockDecode(f *testing.F) {
	// Straight line, ALU + flags.
	f.Add(MustEncode(
		Inst{Op: OpMovi, Dst: 1, Imm: 7},
		Inst{Op: OpAddi, Dst: 1, Imm: 3},
		Inst{Op: OpRet},
	))
	// Fused cmp+jcc pair, taken backwards (a loop).
	f.Add(MustEncode(
		Inst{Op: OpMovi, Dst: 1, Imm: 3},
		Inst{Op: OpSubi, Dst: 1, Imm: 1},
		Inst{Op: OpJnz, Imm: -(LenRegImm + LenBranch)},
		Inst{Op: OpRet},
	))
	// A longer loop across two blocks, so the multi-unit run follows
	// block links.
	f.Add(MustEncode(
		Inst{Op: OpMovi, Dst: 1, Imm: 16},
		Inst{Op: OpAddi, Dst: 0, Imm: 2},
		Inst{Op: OpJmp, Imm: 0},
		Inst{Op: OpSubi, Dst: 1, Imm: 1},
		Inst{Op: OpJnz, Imm: -(LenRegImm + LenBranch + LenRegImm + LenBranch)},
		Inst{Op: OpRet},
	))
	// Ftrace-prologue shape: call whose callee is a bare ret.
	f.Add(MustEncode(
		Inst{Op: OpCall, Imm: 1}, // skip one ret
		Inst{Op: OpRet},
		Inst{Op: OpRet},
	))
	// Trampoline chain: jmp -> jmp -> body.
	f.Add(MustEncode(
		Inst{Op: OpJmp, Imm: LenBranch},
		Inst{Op: OpJmp, Imm: LenBranch},
		Inst{Op: OpJmp, Imm: -(2 * LenBranch)},
		Inst{Op: OpMovi, Dst: 0, Imm: 1},
		Inst{Op: OpRet},
	))
	// Memory traffic + trap terminator.
	f.Add(MustEncode(
		Inst{Op: OpPush, Dst: 1},
		Inst{Op: OpPop, Dst: 2},
		Inst{Op: OpStore, Dst: 15, Src: 2, Imm: -64},
		Inst{Op: OpLoad, Dst: 0, Src: 15, Imm: -64},
		Inst{Op: OpTrap, Imm: 7},
	))
	// Invalid opcode mid-stream: block must end cleanly before it.
	f.Add(append(MustEncode(Inst{Op: OpNop}, Inst{Op: OpNop}), 0xFF, 0x00))
	// Truncated tail: movi missing most of its immediate.
	f.Add(append(MustEncode(Inst{Op: OpNop}), byte(OpMovi), 0x01, 0x02))

	const (
		textBase = uint64(0x10000)
		dataBase = uint64(0x80000)
		stackTop = uint64(0x90000 + 0x1000)
	)

	f.Fuzz(func(t *testing.T, data []byte) {
		if len(data) == 0 || len(data) > 2048 {
			return
		}
		newMem := func() *mem.Physical {
			m := mem.New(1 << 20)
			if _, err := m.Map("text", textBase, uint64(len(data)), mem.Perms{Kernel: mem.PermR | mem.PermX, SMM: mem.PermRWX}); err != nil {
				t.Fatal(err)
			}
			if err := m.Write(mem.PrivSMM, textBase, data); err != nil {
				t.Fatal(err)
			}
			if _, err := m.Map("data", dataBase, 0x1000, mem.Perms{Kernel: mem.PermRW}); err != nil {
				t.Fatal(err)
			}
			if _, err := m.Map("stack", 0x90000, 0x1000, mem.Perms{Kernel: mem.PermRW}); err != nil {
				t.Fatal(err)
			}
			return m
		}
		// entry readies a CPU on fresh memory to run the stream as a
		// call with r1 pointing at the data page.
		entry := func() *CPU {
			c := New(newMem(), mem.PrivKernel)
			c.Reg[RegSP] = stackTop - 8
			if err := c.M.WriteU64(mem.PrivKernel, c.Reg[RegSP], StopAddr); err != nil {
				t.Fatal(err)
			}
			c.Reg[1] = dataBase
			c.RIP = textBase
			return c
		}
		m := newMem()

		// Structural check: the block's preds tile the linear decode.
		c := New(m, mem.PrivKernel)
		e := NewEngine(c)
		if b := e.decodeBlock(textBase); b != nil {
			if b.Start() != textBase {
				t.Fatalf("block starts at %#x, want %#x", b.Start(), textBase)
			}
			if len(b.preds) == 0 || len(b.preds) > blockCap {
				t.Fatalf("block has %d preds (cap %d)", len(b.preds), blockCap)
			}
			addr := textBase
			for i, p := range b.preds {
				if p.addr != addr {
					t.Fatalf("pred %d starts at %#x, linear decode is at %#x", i, p.addr, addr)
				}
				// A fused call+ret or a folded jmp chain retires its
				// callee's ret or its chain's hops out of line; every
				// other step is an in-line instruction.
				inline := p.steps
				if p.op == OpCall || p.op == OpJmp {
					inline = 1
				}
				for k := 0; k < inline; k++ {
					inst, n, err := Decode(data[addr-textBase:])
					if err != nil {
						t.Fatalf("pred %d at %#x: block decoded what Decode rejects: %v", i, addr, err)
					}
					if k == 0 && inst.Op != p.op {
						t.Fatalf("pred %d at %#x: op %v, linear decode %v", i, addr, p.op, inst.Op)
					}
					addr += uint64(n)
				}
				if p.next != addr {
					t.Fatalf("pred %d: next %#x, its %d in-line instructions end at %#x", i, p.next, inline, addr)
				}
			}
			if b.End() != addr {
				t.Fatalf("block end %#x, instructions end at %#x", b.End(), addr)
			}
		}

		// Behavioral check: run the stream under differential lockstep.
		// Every unit executes under both engines on the same memory; any
		// divergence is fatal. Other errors (faults, invalid opcodes,
		// traps) are legitimate outcomes of arbitrary code.
		lc := entry()
		ls := NewLockstep(lc)
		for unit := 0; unit < 64 && !lc.Done(); unit++ {
			_, err := ls.RunUnit(32)
			if err == nil {
				continue
			}
			var div *DivergenceError
			if errors.As(err, &div) {
				t.Fatalf("engines diverge on %x: %v", data, div)
			}
			break
		}

		// Multi-unit check: the same run, engine and oracle each on
		// their own memory, compared at the end.
		oc, ec := entry(), entry()
		eng := NewEngine(ec)
		oerr, eerr := oc.Run(2048), eng.Run(2048)
		if errText(oerr) != errText(eerr) || oc.Steps != ec.Steps || oc.Save() != ec.Save() {
			t.Fatalf("multi-unit run on %x: oracle{%+v steps %d err %q} vs blocks{%+v steps %d err %q}",
				data, oc.Save(), oc.Steps, errText(oerr), ec.Save(), ec.Steps, errText(eerr))
		}
		for _, r := range []struct{ base, size uint64 }{{textBase, uint64(len(data))}, {dataBase, 0x1000}, {0x90000, 0x1000}} {
			ob, eb := make([]byte, r.size), make([]byte, r.size)
			oerr, eerr := oc.M.Read(mem.PrivKernel, r.base, ob), ec.M.Read(mem.PrivKernel, r.base, eb)
			if oerr != nil || eerr != nil || string(ob) != string(eb) {
				t.Fatalf("multi-unit run on %x: memory at %#x differs (read errors %v, %v)", data, r.base, oerr, eerr)
			}
		}
	})
}
