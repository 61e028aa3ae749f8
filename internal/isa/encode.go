package isa

import (
	"encoding/binary"
	"fmt"
)

// Encode appends the binary encoding of inst to dst and returns the
// extended slice. It returns an error for invalid opcodes or operands.
func Encode(dst []byte, inst Inst) ([]byte, error) {
	if err := validate(inst); err != nil {
		return dst, err
	}
	dst = append(dst, byte(inst.Op))
	switch inst.Op {
	case OpNop, OpRet, OpHlt:
		// opcode only
	case OpTrap:
		dst = append(dst, byte(inst.Imm))
	case OpCall, OpJmp, OpJz, OpJnz, OpJl, OpJge, OpJle, OpJg:
		dst = appendI32(dst, int32(inst.Imm))
	case OpMovi:
		dst = append(dst, inst.Dst)
		dst = binary.LittleEndian.AppendUint64(dst, uint64(inst.Imm))
	case OpMov, OpAdd, OpSub, OpMul, OpDiv, OpAnd, OpOr, OpXor, OpShl, OpShr, OpCmp:
		dst = append(dst, inst.Dst, inst.Src)
	case OpCmpi, OpAddi, OpSubi:
		dst = append(dst, inst.Dst)
		dst = appendI32(dst, int32(inst.Imm))
	case OpLoad, OpStore:
		dst = append(dst, inst.Dst, inst.Src)
		dst = appendI32(dst, int32(inst.Imm))
	case OpPush, OpPop:
		dst = append(dst, inst.Dst)
	case OpLoadg:
		dst = append(dst, inst.Dst)
		dst = binary.LittleEndian.AppendUint64(dst, uint64(inst.Imm))
	case OpStrg:
		dst = append(dst, inst.Src)
		dst = binary.LittleEndian.AppendUint64(dst, uint64(inst.Imm))
	}
	return dst, nil
}

func validate(inst Inst) error {
	if inst.Op.Length() == 0 {
		return fmt.Errorf("encode: invalid opcode %#02x", byte(inst.Op))
	}
	if inst.Dst >= NumRegs || inst.Src >= NumRegs {
		return fmt.Errorf("encode %s: register out of range", inst.Op.Mnemonic())
	}
	if inst.Op.IsBranch() || inst.Op == OpCmpi || inst.Op == OpAddi || inst.Op == OpSubi ||
		inst.Op == OpLoad || inst.Op == OpStore {
		if inst.Imm > 1<<31-1 || inst.Imm < -(1<<31) {
			return fmt.Errorf("encode %s: immediate %d exceeds 32 bits", inst.Op.Mnemonic(), inst.Imm)
		}
	}
	if inst.Op == OpTrap && (inst.Imm < 0 || inst.Imm > 255) {
		return fmt.Errorf("encode trap: code %d exceeds 8 bits", inst.Imm)
	}
	return nil
}

func appendI32(dst []byte, v int32) []byte {
	return binary.LittleEndian.AppendUint32(dst, uint32(v))
}

// Decode decodes one instruction from the start of b. It returns the
// instruction and its encoded length.
func Decode(b []byte) (Inst, int, error) {
	if len(b) == 0 {
		return Inst{}, 0, fmt.Errorf("decode: empty input")
	}
	op := Op(b[0])
	n := op.Length()
	if n == 0 {
		return Inst{}, 0, fmt.Errorf("decode: invalid opcode %#02x", b[0])
	}
	if len(b) < n {
		return Inst{}, 0, fmt.Errorf("decode %s: truncated instruction (%d of %d bytes)",
			op.Mnemonic(), len(b), n)
	}
	inst := Inst{Op: op}
	switch op {
	case OpNop, OpRet, OpHlt:
	case OpTrap:
		inst.Imm = int64(b[1])
	case OpCall, OpJmp, OpJz, OpJnz, OpJl, OpJge, OpJle, OpJg:
		inst.Imm = int64(int32(binary.LittleEndian.Uint32(b[1:5])))
	case OpMovi:
		inst.Dst = b[1]
		inst.Imm = int64(binary.LittleEndian.Uint64(b[2:10]))
	case OpMov, OpAdd, OpSub, OpMul, OpDiv, OpAnd, OpOr, OpXor, OpShl, OpShr, OpCmp:
		inst.Dst, inst.Src = b[1], b[2]
	case OpCmpi, OpAddi, OpSubi:
		inst.Dst = b[1]
		inst.Imm = int64(int32(binary.LittleEndian.Uint32(b[2:6])))
	case OpLoad, OpStore:
		inst.Dst, inst.Src = b[1], b[2]
		inst.Imm = int64(int32(binary.LittleEndian.Uint32(b[3:7])))
	case OpPush, OpPop:
		inst.Dst = b[1]
	case OpLoadg:
		inst.Dst = b[1]
		inst.Imm = int64(binary.LittleEndian.Uint64(b[2:10]))
	case OpStrg:
		inst.Src = b[1]
		inst.Imm = int64(binary.LittleEndian.Uint64(b[2:10]))
	}
	if inst.Dst >= NumRegs || inst.Src >= NumRegs {
		return Inst{}, 0, fmt.Errorf("decode %s: register out of range", op.Mnemonic())
	}
	return inst, n, nil
}

// EncodeJmpRel32 returns the 5-byte encoding of a jmp with the given
// rel32 displacement. This is the trampoline instruction KShot writes
// at the entry of a vulnerable function (§V-C).
func EncodeJmpRel32(rel int32) []byte {
	b := make([]byte, 0, LenBranch)
	b = append(b, byte(OpJmp))
	return appendI32(b, rel)
}

// JmpRel32To computes the rel32 displacement for a 5-byte jmp placed at
// `from` whose target is `to`: to − (from + 5). It returns an error if
// the displacement does not fit in 32 bits.
func JmpRel32To(from, to uint64) (int32, error) {
	d := int64(to) - int64(from) - LenBranch
	if d > 1<<31-1 || d < -(1<<31) {
		return 0, fmt.Errorf("jmp from %#x to %#x: displacement %d exceeds rel32", from, to, d)
	}
	return int32(d), nil
}
