package isa

import (
	"math/rand"
	"testing"
	"testing/quick"
)

var allOps = []Op{
	OpNop, OpRet, OpHlt, OpTrap, OpCall, OpJmp, OpJz, OpJnz, OpJl, OpJge,
	OpJle, OpJg, OpMovi, OpMov, OpAdd, OpSub, OpMul, OpDiv, OpAnd, OpOr,
	OpXor, OpShl, OpShr, OpCmp, OpCmpi, OpAddi, OpSubi, OpLoad, OpStore,
	OpPush, OpPop, OpLoadg, OpStrg,
}

func TestOpcodeBytesUnique(t *testing.T) {
	seen := map[Op]bool{}
	for _, op := range allOps {
		if seen[op] {
			t.Errorf("opcode byte %#02x reused", byte(op))
		}
		seen[op] = true
		if op.Length() == 0 {
			t.Errorf("op %s has zero length", op.Mnemonic())
		}
	}
}

func TestBranchEncodingIsFiveBytes(t *testing.T) {
	// The paper's trampoline math depends on 5-byte jmp/call rel32.
	for _, op := range []Op{OpJmp, OpCall, OpJz, OpJnz, OpJl, OpJge, OpJle, OpJg} {
		if op.Length() != 5 {
			t.Errorf("%s length = %d, want 5", op.Mnemonic(), op.Length())
		}
	}
	b := EncodeJmpRel32(-32)
	if len(b) != 5 || b[0] != 0xE9 {
		t.Errorf("EncodeJmpRel32 = % x", b)
	}
}

func randInst(r *rand.Rand) Inst {
	op := allOps[r.Intn(len(allOps))]
	inst := Inst{Op: op, Dst: uint8(r.Intn(NumRegs)), Src: uint8(r.Intn(NumRegs))}
	switch op {
	case OpTrap:
		inst.Imm = int64(r.Intn(256))
		inst.Dst, inst.Src = 0, 0
	case OpCall, OpJmp, OpJz, OpJnz, OpJl, OpJge, OpJle, OpJg:
		inst.Imm = int64(int32(r.Uint32()))
		inst.Dst, inst.Src = 0, 0
	case OpMovi, OpLoadg:
		inst.Imm = int64(r.Uint64())
		inst.Src = 0
	case OpStrg:
		inst.Imm = int64(r.Uint64())
		inst.Dst = 0
	case OpCmpi, OpAddi, OpSubi:
		inst.Imm = int64(int32(r.Uint32()))
		inst.Src = 0
	case OpLoad, OpStore:
		inst.Imm = int64(int32(r.Uint32()))
	case OpPush, OpPop:
		inst.Src = 0
	case OpNop, OpRet, OpHlt:
		inst.Dst, inst.Src = 0, 0
	case OpMov, OpAdd, OpSub, OpMul, OpDiv, OpAnd, OpOr, OpXor, OpShl, OpShr, OpCmp:
		// both registers used
	}
	return inst
}

// Property: decode(encode(i)) == i for every instruction.
func TestQuickEncodeDecodeRoundTrip(t *testing.T) {
	r := rand.New(rand.NewSource(1))
	for i := 0; i < 5000; i++ {
		in := randInst(r)
		b, err := Encode(nil, in)
		if err != nil {
			t.Fatalf("encode %v: %v", in, err)
		}
		if len(b) != in.Op.Length() {
			t.Fatalf("encode %s: %d bytes, want %d", in.Op.Mnemonic(), len(b), in.Op.Length())
		}
		out, n, err := Decode(b)
		if err != nil {
			t.Fatalf("decode % x: %v", b, err)
		}
		if n != len(b) || out != in {
			t.Fatalf("round trip: %v -> % x -> %v", in, b, out)
		}
	}
}

// Property: disassembling an encoded stream recovers the stream.
func TestQuickDisassembleRoundTrip(t *testing.T) {
	f := func(seed int64, count uint8) bool {
		r := rand.New(rand.NewSource(seed))
		n := int(count%32) + 1
		insts := make([]Inst, n)
		var code []byte
		for i := range insts {
			insts[i] = randInst(r)
			var err error
			code, err = Encode(code, insts[i])
			if err != nil {
				return false
			}
		}
		dec, err := Disassemble(code, 0x1000)
		if err != nil || len(dec) != n {
			return false
		}
		for i, d := range dec {
			if d.Inst != insts[i] {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Error(err)
	}
}

func TestDecodeErrors(t *testing.T) {
	if _, _, err := Decode(nil); err == nil {
		t.Error("decode of empty input succeeded")
	}
	if _, _, err := Decode([]byte{0xFF}); err == nil {
		t.Error("decode of invalid opcode succeeded")
	}
	if _, _, err := Decode([]byte{byte(OpJmp), 1, 2}); err == nil {
		t.Error("decode of truncated jmp succeeded")
	}
	if _, _, err := Decode([]byte{byte(OpMov), 99, 0}); err == nil {
		t.Error("decode with out-of-range register succeeded")
	}
}

func TestEncodeErrors(t *testing.T) {
	if _, err := Encode(nil, Inst{Op: Op(0xFF)}); err == nil {
		t.Error("encode invalid opcode succeeded")
	}
	if _, err := Encode(nil, Inst{Op: OpMov, Dst: 200}); err == nil {
		t.Error("encode out-of-range register succeeded")
	}
	if _, err := Encode(nil, Inst{Op: OpJmp, Imm: 1 << 40}); err == nil {
		t.Error("encode oversized rel32 succeeded")
	}
	if _, err := Encode(nil, Inst{Op: OpTrap, Imm: 999}); err == nil {
		t.Error("encode oversized trap code succeeded")
	}
}

func TestJmpRel32To(t *testing.T) {
	rel, err := JmpRel32To(0x1000, 0x2000)
	if err != nil {
		t.Fatal(err)
	}
	if got := int64(0x1000) + 5 + int64(rel); got != 0x2000 {
		t.Errorf("target = %#x, want 0x2000", got)
	}
	rel, err = JmpRel32To(0x2000, 0x1000)
	if err != nil {
		t.Fatal(err)
	}
	if got := int64(0x2000) + 5 + int64(rel); got != 0x1000 {
		t.Errorf("backward target = %#x, want 0x1000", got)
	}
	if _, err := JmpRel32To(0, 1<<40); err == nil {
		t.Error("oversized displacement accepted")
	}
}

func TestInstStringAllForms(t *testing.T) {
	r := rand.New(rand.NewSource(2))
	for i := 0; i < 200; i++ {
		in := randInst(r)
		if in.String() == "" {
			t.Fatalf("empty String for %v", in)
		}
	}
	if (Inst{Op: OpLoad, Dst: 1, Src: 2, Imm: -8}).String() != "load r1, [r2-8]" {
		t.Errorf("load string: %s", Inst{Op: OpLoad, Dst: 1, Src: 2, Imm: -8}.String())
	}
	if (Inst{Op: OpMov, Dst: RegSP, Src: 0}).String() != "mov sp, r0" {
		t.Error("sp alias not rendered")
	}
}

// MustEncode encodes a sequence of instructions, panicking on error,
// for tests whose instructions are compile-time constants.
func MustEncode(insts ...Inst) []byte {
	var out []byte
	var err error
	for _, in := range insts {
		out, err = Encode(out, in)
		if err != nil {
			panic(err)
		}
	}
	return out
}
