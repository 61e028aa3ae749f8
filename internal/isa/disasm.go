package isa

import "fmt"

// Decoded is one disassembled instruction with its location.
type Decoded struct {
	Addr uint64
	Inst Inst
	Len  int
}

// BranchTarget returns the absolute target address of a branch
// instruction (call/jmp/jcc), and whether the instruction is one.
func (d Decoded) BranchTarget() (uint64, bool) {
	if !d.Inst.Op.IsBranch() {
		return 0, false
	}
	return uint64(int64(d.Addr) + int64(d.Len) + d.Inst.Imm), true
}

// Disassemble decodes the byte range as a linear instruction stream
// starting at base. It fails on any invalid or truncated encoding —
// linked images contain no embedded data in text, so a failure
// indicates corruption (which is exactly what the introspection
// checks look for).
func Disassemble(code []byte, base uint64) ([]Decoded, error) {
	var out []Decoded
	off := 0
	for off < len(code) {
		inst, n, err := Decode(code[off:])
		if err != nil {
			return nil, fmt.Errorf("disasm at %#x: %w", base+uint64(off), err)
		}
		out = append(out, Decoded{Addr: base + uint64(off), Inst: inst, Len: n})
		off += n
	}
	return out, nil
}

// FtracePrologueLen is the length of the kernel tracing prologue
// (`call __fentry__`), the 5-byte sequence KShot must skip when
// patching traced functions (§V-A "Supporting Kernel Tracing").
const FtracePrologueLen = LenBranch
