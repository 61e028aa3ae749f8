package isa

import (
	"bytes"
	"strings"
	"testing"
)

// TestOpcodeCoverage drives every opcode through encode, decode, length
// accounting, and the assembler-syntax renderer, asserting exact output
// for each. One entry per opcode keeps the disassembler's whole surface
// pinned: adding an opcode without extending this table fails the
// exhaustiveness check below.
func TestOpcodeCoverage(t *testing.T) {
	cases := []struct {
		inst Inst
		len  int
		str  string
	}{
		// nullary
		{Inst{Op: OpNop}, 1, "nop"},
		{Inst{Op: OpRet}, 1, "ret"},
		{Inst{Op: OpHlt}, 1, "hlt"},
		// trap imm8
		{Inst{Op: OpTrap, Imm: 0x41}, LenTrap, "trap 65"},
		// branches: opcode + rel32, signed displacement
		{Inst{Op: OpCall, Imm: 1234}, LenBranch, "call +1234"},
		{Inst{Op: OpJmp, Imm: -5}, LenBranch, "jmp -5"},
		{Inst{Op: OpJz, Imm: 16}, LenBranch, "jz +16"},
		{Inst{Op: OpJnz, Imm: -2048}, LenBranch, "jnz -2048"},
		{Inst{Op: OpJl, Imm: 0}, LenBranch, "jl +0"},
		{Inst{Op: OpJge, Imm: 7}, LenBranch, "jge +7"},
		{Inst{Op: OpJle, Imm: -7}, LenBranch, "jle -7"},
		{Inst{Op: OpJg, Imm: 1 << 20}, LenBranch, "jg +1048576"},
		// movi reg, imm64
		{Inst{Op: OpMovi, Dst: 3, Imm: -1}, LenMovi, "movi r3, 0xffffffffffffffff"},
		// reg, reg ALU
		{Inst{Op: OpMov, Dst: 1, Src: 2}, LenRegReg, "mov r1, r2"},
		{Inst{Op: OpAdd, Dst: 0, Src: 15}, LenRegReg, "add r0, sp"},
		{Inst{Op: OpSub, Dst: 4, Src: 5}, LenRegReg, "sub r4, r5"},
		{Inst{Op: OpMul, Dst: 6, Src: 7}, LenRegReg, "mul r6, r7"},
		{Inst{Op: OpDiv, Dst: 8, Src: 9}, LenRegReg, "div r8, r9"},
		{Inst{Op: OpAnd, Dst: 10, Src: 11}, LenRegReg, "and r10, r11"},
		{Inst{Op: OpOr, Dst: 12, Src: 13}, LenRegReg, "or r12, r13"},
		{Inst{Op: OpXor, Dst: 14, Src: 14}, LenRegReg, "xor r14, r14"},
		{Inst{Op: OpShl, Dst: 1, Src: 3}, LenRegReg, "shl r1, r3"},
		{Inst{Op: OpShr, Dst: 2, Src: 4}, LenRegReg, "shr r2, r4"},
		{Inst{Op: OpCmp, Dst: 5, Src: 6}, LenRegReg, "cmp r5, r6"},
		// reg, imm32 (sign-extended)
		{Inst{Op: OpCmpi, Dst: 7, Imm: 99}, LenRegImm, "cmpi r7, 99"},
		{Inst{Op: OpAddi, Dst: 8, Imm: -1}, LenRegImm, "addi r8, -1"},
		{Inst{Op: OpSubi, Dst: 9, Imm: 1 << 30}, LenRegImm, "subi r9, 1073741824"},
		// memory with base+disp32
		{Inst{Op: OpLoad, Dst: 1, Src: 2, Imm: 64}, LenMemDisp, "load r1, [r2+64]"},
		{Inst{Op: OpStore, Dst: 3, Src: 4, Imm: -8}, LenMemDisp, "store [r3-8], r4"},
		// stack
		{Inst{Op: OpPush, Dst: 15}, LenStack, "push sp"},
		{Inst{Op: OpPop, Dst: 0}, LenStack, "pop r0"},
		// absolute 64-bit data references
		{Inst{Op: OpLoadg, Dst: 2, Imm: 0x400100}, LenAbs, "loadg r2, [0x400100]"},
		{Inst{Op: OpStrg, Src: 3, Imm: 0x400108}, LenAbs, "storeg [0x400108], r3"},
	}

	covered := map[Op]bool{}
	for _, tc := range cases {
		covered[tc.inst.Op] = true
		t.Run(tc.str, func(t *testing.T) {
			if got := tc.inst.Op.Length(); got != tc.len {
				t.Errorf("Length() = %d, want %d", got, tc.len)
			}
			if got := tc.inst.String(); got != tc.str {
				t.Errorf("String() = %q, want %q", got, tc.str)
			}
			enc, err := Encode(nil, tc.inst)
			if err != nil {
				t.Fatalf("Encode: %v", err)
			}
			if len(enc) != tc.len {
				t.Fatalf("encoded %d bytes, want %d", len(enc), tc.len)
			}
			if Op(enc[0]) != tc.inst.Op {
				t.Errorf("first byte %#02x, want opcode %#02x", enc[0], byte(tc.inst.Op))
			}
			dec, n, err := Decode(enc)
			if err != nil {
				t.Fatalf("Decode: %v", err)
			}
			if n != tc.len || dec != tc.inst {
				t.Errorf("round trip: got %+v len %d, want %+v len %d", dec, n, tc.inst, tc.len)
			}
			// Extra trailing bytes must not change the decode.
			dec2, n2, err := Decode(append(enc, 0x90, 0xC3))
			if err != nil || n2 != n || dec2 != dec {
				t.Errorf("decode with trailing bytes: %+v len %d err %v", dec2, n2, err)
			}
		})
	}

	// Exhaustiveness: every byte value the ISA assigns a length must
	// have a table entry, so a new opcode cannot land untested.
	for b := 0; b < 256; b++ {
		op := Op(b)
		if op.Length() > 0 && !covered[op] {
			t.Errorf("opcode %#02x (%s) has no coverage case", b, op.Mnemonic())
		}
	}
}

// TestOpcodeCoverageBlockDispatch drives every opcode through the
// block-dispatch engine next to the oracle interpreter, comparing the
// full architectural outcome (result, state, retired steps, error text)
// — the per-opcode analogue of the lockstep suite. The exhaustiveness
// check below forces a new opcode to get a dispatch case alongside its
// encode/decode case, keeping the two engines' opcode coverage in
// lockstep. The fused and unfused superinstruction forms are pinned by
// the dedicated tests in block_test.go (TestFusedCallRet,
// TestUnfusedCall, TestFusedFlagsJcc, TestJmpChainFolding); the jcc
// cases here additionally take both branch directions through the fused
// cmp+jcc path.
func TestOpcodeCoverageBlockDispatch(t *testing.T) {
	jccSrc := func(jcc string) string {
		return `
.func f
    cmpi r1, 5
    ` + jcc + ` .hit
    movi r0, 10
    ret
.hit:
    movi r0, 20
    ret
.endfunc
`
	}
	cases := []struct {
		ops     []Op
		src     string
		argSets [][]uint64
	}{
		{[]Op{OpNop, OpMovi, OpRet}, ".func f\nnop\nmovi r0, 1\nret\n.endfunc", [][]uint64{{}}},
		{[]Op{OpHlt}, ".func f\nhlt\n.endfunc", [][]uint64{{}}},
		{[]Op{OpTrap}, ".func f\ntrap 65\nret\n.endfunc", [][]uint64{{}}},
		{[]Op{OpCall}, `
.func callee
    add r1, r2
    mov r0, r1
    ret
.endfunc
.func f
    call callee
    ret
.endfunc
`, [][]uint64{{3, 4}}},
		{[]Op{OpJmp}, ".func f\njmp .x\nmovi r0, 1\nret\n.x:\nmovi r0, 2\nret\n.endfunc", [][]uint64{{}}},
		{[]Op{OpJz}, jccSrc("jz"), [][]uint64{{5}, {6}}},
		{[]Op{OpJnz}, jccSrc("jnz"), [][]uint64{{5}, {6}}},
		{[]Op{OpJl}, jccSrc("jl"), [][]uint64{{3}, {5}, {9}}},
		{[]Op{OpJge}, jccSrc("jge"), [][]uint64{{3}, {5}, {9}}},
		{[]Op{OpJle}, jccSrc("jle"), [][]uint64{{3}, {5}, {9}}},
		{[]Op{OpJg}, jccSrc("jg"), [][]uint64{{3}, {5}, {9}}},
		{[]Op{OpMov, OpAdd}, ".func f\nmov r0, r1\nadd r0, r2\nret\n.endfunc", [][]uint64{{3, 4}}},
		{[]Op{OpSub}, ".func f\nmov r0, r1\nsub r0, r2\nret\n.endfunc", [][]uint64{{9, 4}, {4, 9}}},
		{[]Op{OpMul}, ".func f\nmov r0, r1\nmul r0, r2\nret\n.endfunc", [][]uint64{{6, 7}}},
		{[]Op{OpDiv}, ".func f\nmov r0, r1\ndiv r0, r2\nret\n.endfunc", [][]uint64{{42, 6}, {42, 0}}},
		{[]Op{OpAnd}, ".func f\nmov r0, r1\nand r0, r2\nret\n.endfunc", [][]uint64{{0xff, 0x0f}}},
		{[]Op{OpOr}, ".func f\nmov r0, r1\nor r0, r2\nret\n.endfunc", [][]uint64{{0xf0, 0x0f}}},
		{[]Op{OpXor}, ".func f\nmov r0, r1\nxor r0, r2\nret\n.endfunc", [][]uint64{{0xff, 0xff}, {1, 2}}},
		{[]Op{OpShl}, ".func f\nmov r0, r1\nshl r0, r2\nret\n.endfunc", [][]uint64{{1, 8}, {1, 70}}},
		{[]Op{OpShr}, ".func f\nmov r0, r1\nshr r0, r2\nret\n.endfunc", [][]uint64{{256, 8}}},
		{[]Op{OpCmp}, `
.func f
    cmp r1, r2
    jz .eq
    movi r0, 1
    ret
.eq:
    movi r0, 2
    ret
.endfunc
`, [][]uint64{{4, 4}, {4, 5}}},
		{[]Op{OpCmpi}, jccSrc("jz"), [][]uint64{{5}, {4}}},
		{[]Op{OpAddi}, ".func f\nmov r0, r1\naddi r0, -1\nret\n.endfunc", [][]uint64{{10}, {0}}},
		{[]Op{OpSubi}, ".func f\nmov r0, r1\nsubi r0, 7\nret\n.endfunc", [][]uint64{{10}, {3}}},
		{[]Op{OpLoad, OpStore}, `
.func f
    store [sp-16], r1
    load r0, [sp-16]
    addi r0, 1
    ret
.endfunc
`, [][]uint64{{41}}},
		{[]Op{OpPush, OpPop}, ".func f\npush r1\npush r2\npop r0\npop r3\nadd r0, r3\nret\n.endfunc", [][]uint64{{5, 6}}},
		{[]Op{OpLoadg, OpStrg}, `
.global g 8
.func f
    storeg g, r1
    loadg r0, g
    addi r0, 2
    ret
.endfunc
`, [][]uint64{{7}}},
	}

	covered := map[Op]bool{}
	for _, tc := range cases {
		for _, op := range tc.ops {
			covered[op] = true
		}
		t.Run(tc.ops[0].Mnemonic(), func(t *testing.T) {
			img, oracle, e, stack := dualRig(t, tc.src, LinkOptions{})
			for _, args := range tc.argSets {
				callBoth(t, img, oracle, e, stack, "f", 1000, args...)
			}
		})
	}
	for b := 0; b < 256; b++ {
		op := Op(b)
		if op.Length() > 0 && !covered[op] {
			t.Errorf("opcode %#02x (%s) has no block-dispatch coverage case", b, op.Mnemonic())
		}
	}
}

// TestDecodeTruncated feeds every multi-byte opcode a prefix one byte
// short of its encoded length and expects the decoder to identify the
// truncation rather than read out of bounds.
func TestDecodeTruncated(t *testing.T) {
	full := map[Op][]byte{
		OpTrap:  MustEncode(Inst{Op: OpTrap, Imm: 3}),
		OpJmp:   MustEncode(Inst{Op: OpJmp, Imm: 100}),
		OpMovi:  MustEncode(Inst{Op: OpMovi, Dst: 1, Imm: 42}),
		OpAdd:   MustEncode(Inst{Op: OpAdd, Dst: 1, Src: 2}),
		OpAddi:  MustEncode(Inst{Op: OpAddi, Dst: 1, Imm: 42}),
		OpLoad:  MustEncode(Inst{Op: OpLoad, Dst: 1, Src: 2, Imm: 8}),
		OpPush:  MustEncode(Inst{Op: OpPush, Dst: 1}),
		OpLoadg: MustEncode(Inst{Op: OpLoadg, Dst: 1, Imm: 0x400000}),
	}
	for op, enc := range full {
		for cut := 1; cut < len(enc); cut++ {
			_, _, err := Decode(enc[:cut])
			if err == nil {
				t.Errorf("%s: decoding %d of %d bytes succeeded", op.Mnemonic(), cut, len(enc))
				continue
			}
			if !strings.Contains(err.Error(), "truncated instruction") {
				t.Errorf("%s truncated to %d bytes: error %q lacks truncation diagnosis",
					op.Mnemonic(), cut, err)
			}
		}
	}
	if _, _, err := Decode(nil); err == nil {
		t.Error("decoding empty input succeeded")
	}
}

// TestDecodeBadOpcode checks that unassigned opcode bytes are rejected
// by Decode and located precisely by Disassemble.
func TestDecodeBadOpcode(t *testing.T) {
	for _, b := range []byte{0x00, 0x02, 0xFF, 0x80} {
		if Op(b).Length() != 0 {
			t.Fatalf("test assumes %#02x is unassigned", b)
		}
		_, _, err := Decode([]byte{b})
		if err == nil || !strings.Contains(err.Error(), "invalid opcode") {
			t.Errorf("Decode(%#02x) error = %v, want invalid opcode", b, err)
		}
	}

	// A bad byte mid-stream must be reported at its address, not the
	// base: two nops then garbage at base+2.
	code := append(MustEncode(Inst{Op: OpNop}, Inst{Op: OpNop}), 0xFF)
	_, err := Disassemble(code, 0x1000)
	if err == nil || !strings.Contains(err.Error(), "0x1002") {
		t.Errorf("Disassemble error = %v, want failure at 0x1002", err)
	}

	// Truncation mid-stream: a jmp missing its displacement tail.
	code = append(MustEncode(Inst{Op: OpRet}), byte(OpJmp), 0x01)
	_, err = Disassemble(code, 0x2000)
	if err == nil || !strings.Contains(err.Error(), "0x2001") ||
		!strings.Contains(err.Error(), "truncated") {
		t.Errorf("Disassemble error = %v, want truncation at 0x2001", err)
	}
}

// TestDisassembleRoundTrip re-encodes a disassembled stream and expects
// the original bytes, byte for byte — the property the in-SMM
// introspection pass relies on when verifying patched text.
func TestDisassembleRoundTrip(t *testing.T) {
	prog := MustEncode(
		Inst{Op: OpMovi, Dst: 0, Imm: 7},
		Inst{Op: OpPush, Dst: 0},
		Inst{Op: OpCall, Imm: 12},
		Inst{Op: OpPop, Dst: 1},
		Inst{Op: OpCmpi, Dst: 1, Imm: 7},
		Inst{Op: OpJnz, Imm: -20},
		Inst{Op: OpLoad, Dst: 2, Src: 1, Imm: 16},
		Inst{Op: OpStrg, Src: 2, Imm: 0x400200},
		Inst{Op: OpRet},
	)
	decoded, err := Disassemble(prog, 0x400000)
	if err != nil {
		t.Fatal(err)
	}
	var re []byte
	addr := uint64(0x400000)
	for _, d := range decoded {
		if d.Addr != addr {
			t.Errorf("instruction at %#x, want %#x", d.Addr, addr)
		}
		re, err = Encode(re, d.Inst)
		if err != nil {
			t.Fatal(err)
		}
		addr += uint64(d.Len)
	}
	if !bytes.Equal(re, prog) {
		t.Errorf("re-encoded stream differs:\n  got  % x\n  want % x", re, prog)
	}
	// Branch targets resolve relative to the *next* instruction.
	if tgt, ok := decoded[2].BranchTarget(); !ok || tgt != decoded[2].Addr+LenBranch+12 {
		t.Errorf("call target = %#x ok=%v", tgt, ok)
	}
}
