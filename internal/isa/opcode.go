// Package isa defines the instruction set of the simulated target
// machine: a byte-encoded, variable-length, x86-like ISA with an
// assembler, disassembler, and interpreter CPU.
//
// The encodings that KShot's binary patching depends on are faithful to
// x86: JMP rel32 and CALL rel32 are five bytes (opcode + little-endian
// signed 32-bit displacement relative to the next instruction), so the
// paper's trampoline arithmetic — replacing a target function's first
// instruction with a jmp whose offset is p.paddr − p.taddr + 5 — and
// its 5-byte ftrace prologue handling carry over bit-for-bit. Other
// opcodes are simplified but preserve the properties patching cares
// about: variable instruction length, relative branches that need
// fix-ups when code moves, and absolute data references.
//
// The package carries no instrumentation handle: the block engine
// learns of code changes only through memory's code epoch (block.go).
package isa

import "fmt"

// Op is an operation code. The numeric values are the actual encoded
// opcode bytes.
type Op byte

// Opcodes. JMP, CALL, NOP and the Jcc family reuse genuine x86 opcode
// bytes (with rel32 operands); the rest are assigned unique bytes.
const (
	OpNop   Op = 0x90 // nop
	OpRet   Op = 0xC3 // ret
	OpHlt   Op = 0xF4 // hlt
	OpTrap  Op = 0xCC // trap imm8 — software interrupt / exploit marker
	OpCall  Op = 0xE8 // call rel32
	OpJmp   Op = 0xE9 // jmp rel32
	OpJz    Op = 0x74 // jz rel32
	OpJnz   Op = 0x75 // jnz rel32
	OpJl    Op = 0x7C // jl rel32 (signed)
	OpJge   Op = 0x7D // jge rel32
	OpJle   Op = 0x7E // jle rel32
	OpJg    Op = 0x7F // jg rel32
	OpMovi  Op = 0xB8 // movi reg, imm64
	OpMov   Op = 0x89 // mov dst, src
	OpAdd   Op = 0x01 // add dst, src
	OpSub   Op = 0x29 // sub dst, src
	OpMul   Op = 0x0F // mul dst, src
	OpDiv   Op = 0x06 // div dst, src (faults on zero divisor)
	OpAnd   Op = 0x21 // and dst, src
	OpOr    Op = 0x09 // or dst, src
	OpXor   Op = 0x31 // xor dst, src
	OpShl   Op = 0xD2 // shl dst, src
	OpShr   Op = 0xD3 // shr dst, src
	OpCmp   Op = 0x39 // cmp a, b — sets flags from a−b
	OpCmpi  Op = 0x3D // cmpi reg, imm32
	OpAddi  Op = 0x05 // addi reg, imm32 (sign-extended)
	OpSubi  Op = 0x2D // subi reg, imm32
	OpLoad  Op = 0x8B // load dst, [base+disp32]
	OpStore Op = 0x88 // store [base+disp32], src
	OpPush  Op = 0x50 // push reg
	OpPop   Op = 0x58 // pop reg
	OpLoadg Op = 0xA1 // loadg dst, [abs64]
	OpStrg  Op = 0xA3 // storeg [abs64], src
)

// Fixed instruction lengths in bytes, per opcode.
const (
	LenTrap    = 2
	LenBranch  = 5 // call/jmp/jcc: opcode + rel32
	LenMovi    = 10
	LenRegReg  = 3
	LenRegImm  = 6 // cmpi/addi/subi: opcode + reg + imm32
	LenMemDisp = 7 // load/store: opcode + 2 regs + disp32
	LenStack   = 2
	LenAbs     = 10 // loadg/storeg: opcode + reg + abs64
)

// Length returns the encoded byte length of an instruction with this
// opcode, or 0 if the opcode is invalid.
func (op Op) Length() int {
	switch op {
	case OpNop, OpRet, OpHlt:
		return 1
	case OpTrap:
		return LenTrap
	case OpCall, OpJmp, OpJz, OpJnz, OpJl, OpJge, OpJle, OpJg:
		return LenBranch
	case OpMovi:
		return LenMovi
	case OpMov, OpAdd, OpSub, OpMul, OpDiv, OpAnd, OpOr, OpXor, OpShl, OpShr, OpCmp:
		return LenRegReg
	case OpCmpi, OpAddi, OpSubi:
		return LenRegImm
	case OpLoad, OpStore:
		return LenMemDisp
	case OpPush, OpPop:
		return LenStack
	case OpLoadg, OpStrg:
		return LenAbs
	default:
		return 0
	}
}

// IsBranch reports whether the opcode is a control transfer with a
// rel32 operand (call, jmp, or conditional jump).
func (op Op) IsBranch() bool {
	switch op {
	case OpCall, OpJmp, OpJz, OpJnz, OpJl, OpJge, OpJle, OpJg:
		return true
	default:
		return false
	}
}

// Mnemonic returns the assembler mnemonic for the opcode.
func (op Op) Mnemonic() string {
	if s, ok := mnemonics[op]; ok {
		return s
	}
	return fmt.Sprintf("op%#02x", byte(op))
}

var mnemonics = map[Op]string{
	OpNop: "nop", OpRet: "ret", OpHlt: "hlt", OpTrap: "trap",
	OpCall: "call", OpJmp: "jmp", OpJz: "jz", OpJnz: "jnz",
	OpJl: "jl", OpJge: "jge", OpJle: "jle", OpJg: "jg",
	OpMovi: "movi", OpMov: "mov", OpAdd: "add", OpSub: "sub",
	OpMul: "mul", OpDiv: "div", OpAnd: "and", OpOr: "or", OpXor: "xor",
	OpShl: "shl", OpShr: "shr", OpCmp: "cmp", OpCmpi: "cmpi",
	OpAddi: "addi", OpSubi: "subi", OpLoad: "load", OpStore: "store",
	OpPush: "push", OpPop: "pop", OpLoadg: "loadg", OpStrg: "storeg",
}

// opByMnemonic is the inverse of mnemonics, built once at init.
var opByMnemonic = func() map[string]Op {
	m := make(map[string]Op, len(mnemonics))
	for op, s := range mnemonics {
		m[s] = op
	}
	return m
}()

// NumRegs is the number of general-purpose registers.
const NumRegs = 16

// RegSP is the stack pointer register (r15, written "sp" in assembly).
const RegSP = 15

// Inst is a decoded machine instruction.
type Inst struct {
	Op  Op
	Dst uint8 // destination register (or base register for store)
	Src uint8 // source register
	Imm int64 // immediate, displacement, rel32, or absolute address
}

// String renders the instruction in assembler syntax.
func (i Inst) String() string {
	switch i.Op {
	case OpNop, OpRet, OpHlt:
		return i.Op.Mnemonic()
	case OpTrap:
		return fmt.Sprintf("trap %d", i.Imm)
	case OpCall, OpJmp, OpJz, OpJnz, OpJl, OpJge, OpJle, OpJg:
		return fmt.Sprintf("%s %+d", i.Op.Mnemonic(), i.Imm)
	case OpMovi:
		return fmt.Sprintf("movi %s, %#x", regName(i.Dst), uint64(i.Imm))
	case OpMov, OpAdd, OpSub, OpMul, OpDiv, OpAnd, OpOr, OpXor, OpShl, OpShr, OpCmp:
		return fmt.Sprintf("%s %s, %s", i.Op.Mnemonic(), regName(i.Dst), regName(i.Src))
	case OpCmpi, OpAddi, OpSubi:
		return fmt.Sprintf("%s %s, %d", i.Op.Mnemonic(), regName(i.Dst), i.Imm)
	case OpLoad:
		return fmt.Sprintf("load %s, [%s%+d]", regName(i.Dst), regName(i.Src), i.Imm)
	case OpStore:
		return fmt.Sprintf("store [%s%+d], %s", regName(i.Dst), i.Imm, regName(i.Src))
	case OpPush, OpPop:
		return fmt.Sprintf("%s %s", i.Op.Mnemonic(), regName(i.Dst))
	case OpLoadg:
		return fmt.Sprintf("loadg %s, [%#x]", regName(i.Dst), uint64(i.Imm))
	case OpStrg:
		return fmt.Sprintf("storeg [%#x], %s", uint64(i.Imm), regName(i.Src))
	default:
		return fmt.Sprintf("op%#02x", byte(i.Op))
	}
}

func regName(r uint8) string {
	if r == RegSP {
		return "sp"
	}
	return fmt.Sprintf("r%d", r)
}
