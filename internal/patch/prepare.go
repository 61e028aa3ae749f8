package patch

import (
	"encoding/binary"
	"fmt"

	"kshot/internal/isa"
)

// Placement describes the target machine's reserved memory, which the
// patch server registered with the SMM handler in advance (§V-A: "the
// configurations of reserved memory ... are all saved in SMM code in
// advance").
type Placement struct {
	// MemXBase/MemXSize is the execute-only area receiving patched
	// function text.
	MemXBase uint64
	MemXSize uint64

	// DataAllocBase/Size is where new global variables introduced by a
	// patch are allocated (a kernel-readable/writable slice of the
	// reserved area).
	DataAllocBase uint64
	DataAllocSize uint64
}

// funcAlign is the placement alignment of patched functions in mem_X.
const funcAlign = 16

// PreparedFunc is one function patch after preprocessing: final bytes
// at a final address, plus the trampoline to install.
type PreparedFunc struct {
	Seq    uint16
	Name   string
	Type   Type
	New    bool
	Traced bool

	// TAddr is the entry of the vulnerable function in the running
	// kernel (0 for new functions — no trampoline).
	TAddr uint64

	// TSize is the vulnerable function's size in the running kernel
	// (0 for new functions). The SMM handler's optional activeness
	// check uses it to decide whether any vCPU is executing inside
	// the function being replaced.
	TSize uint64

	// PAddr is the function's final location in mem_X.
	PAddr uint64

	// Payload is the placement-final, fully relocated machine code.
	Payload []byte

	// TrampolineAt/TrampolineBytes is the 5-byte jmp to write at the
	// target (after the ftrace prologue when Traced).
	TrampolineAt    uint64
	TrampolineBytes []byte
}

// PreparedGlobal is a resolved data-segment edit.
type PreparedGlobal struct {
	Name string
	Addr uint64
	Init []byte // bytes to write (nil: leave as-is)
}

// Prepared is the preprocessed patch, ready for packaging and
// transport to the SMM handler.
type Prepared struct {
	ID            string
	KernelVersion string
	Funcs         []PreparedFunc
	Globals       []PreparedGlobal

	// MemXUsed is the number of mem_X bytes consumed.
	MemXUsed uint64
	// DataUsed is the number of data-allocation bytes consumed.
	DataUsed uint64
}

// Prepare performs the SGX-side preprocessing of §V-B: it assigns each
// payload its mem_X address following the paper's cumulative layout
// (p_i.paddr = p_{i-1}.paddr + p_{i-1}.size, aligned), allocates
// storage for new globals, resolves every relocation against the
// running kernel's symbol table, and computes the trampoline
// instructions (jmp rel32 = p.paddr − p.taddr − 5, placed after the
// 5-byte trace sequence for traced functions).
//
// kernelSyms is the *running* kernel's symbol table; memXCursor and
// dataCursor say how much of each area earlier patches already
// consumed.
func Prepare(bp *BinaryPatch, kernelSyms *isa.SymTab, place Placement, memXCursor, dataCursor uint64) (*Prepared, error) {
	p := &Prepared{ID: bp.ID, KernelVersion: bp.KernelVersion}

	// Allocate new globals and install value edits.
	newAddrs := make(map[string]uint64)
	dataOff := dataCursor
	for _, g := range bp.Globals {
		if g.New {
			dataOff = alignUp(dataOff, 8)
			// Size comes from the server blob: compare it without a sum
			// that could wrap, before preparedInit allocates its zeros.
			if dataOff > place.DataAllocSize || g.Size > place.DataAllocSize-dataOff {
				return nil, fmt.Errorf("prepare %s: data allocation area exhausted", bp.ID)
			}
			addr := place.DataAllocBase + dataOff
			newAddrs[g.Name] = addr
			p.Globals = append(p.Globals, PreparedGlobal{Name: g.Name, Addr: addr, Init: preparedInit(g)})
			dataOff += g.Size
			continue
		}
		sym, ok := kernelSyms.Lookup(g.Name)
		if !ok || sym.Kind != isa.SymObject {
			return nil, fmt.Errorf("prepare %s: global %q not in running kernel", bp.ID, g.Name)
		}
		p.Globals = append(p.Globals, PreparedGlobal{Name: g.Name, Addr: sym.Addr, Init: preparedInit(g)})
	}
	p.DataUsed = dataOff - dataCursor

	// First pass: assign mem_X addresses (new functions must be
	// resolvable as branch targets of other payloads).
	paddrs := make(map[string]uint64, len(bp.Funcs))
	cursor := memXCursor
	for _, f := range bp.Funcs {
		cursor = alignUp(cursor, funcAlign)
		if cursor+uint64(len(f.Payload)) > place.MemXSize {
			return nil, fmt.Errorf("prepare %s: mem_X exhausted (%d of %d bytes used)",
				bp.ID, cursor, place.MemXSize)
		}
		paddrs[f.Name] = place.MemXBase + cursor
		cursor += uint64(len(f.Payload))
	}
	p.MemXUsed = cursor - memXCursor

	resolve := func(name string) (uint64, bool) {
		if a, ok := newAddrs[name]; ok {
			return a, true
		}
		if s, ok := kernelSyms.Lookup(name); ok {
			return s.Addr, true
		}
		if a, ok := paddrs[name]; ok {
			// New functions and fellow payloads resolve to mem_X.
			return a, true
		}
		return 0, false
	}

	// Second pass: relocate payloads and compute trampolines.
	for i, f := range bp.Funcs {
		paddr := paddrs[f.Name]
		payload := append([]byte(nil), f.Payload...)
		for _, r := range f.Relocs {
			base, ok := resolve(r.Sym)
			if !ok {
				return nil, fmt.Errorf("prepare %s/%s: unresolved symbol %q", bp.ID, f.Name, r.Sym)
			}
			target := uint64(int64(base) + r.Addend)
			switch r.Kind {
			case RelocBranch:
				if r.Offset < 1 || r.Offset+4 > len(payload) {
					return nil, fmt.Errorf("prepare %s/%s: branch reloc offset %d out of payload", bp.ID, f.Name, r.Offset)
				}
				instAddr := paddr + uint64(r.Offset) - 1
				rel, err := isa.JmpRel32To(instAddr, target)
				if err != nil {
					return nil, fmt.Errorf("prepare %s/%s: %w", bp.ID, f.Name, err)
				}
				binary.LittleEndian.PutUint32(payload[r.Offset:], uint32(rel))
			case RelocAbs64:
				if r.Offset < 0 || r.Offset+8 > len(payload) {
					return nil, fmt.Errorf("prepare %s/%s: abs reloc offset %d out of payload", bp.ID, f.Name, r.Offset)
				}
				binary.LittleEndian.PutUint64(payload[r.Offset:], target)
			default:
				return nil, fmt.Errorf("prepare %s/%s: unknown reloc kind %d", bp.ID, f.Name, r.Kind)
			}
		}

		pf := PreparedFunc{
			Seq:     uint16(i),
			Name:    f.Name,
			Type:    f.Type,
			New:     f.New,
			Traced:  f.Traced,
			PAddr:   paddr,
			Payload: payload,
		}
		if !f.New {
			tsym, ok := kernelSyms.Lookup(f.Name)
			if !ok || tsym.Kind != isa.SymFunc {
				return nil, fmt.Errorf("prepare %s: target %q not in running kernel", bp.ID, f.Name)
			}
			pf.TAddr = tsym.Addr
			pf.TSize = tsym.Size
			skip := uint64(0)
			if f.Traced {
				skip = isa.FtracePrologueLen
			}
			pf.TrampolineAt = tsym.Addr + skip
			if tsym.Size < skip+isa.FtracePrologueLen {
				return nil, fmt.Errorf("prepare %s: target %q too small for trampoline (%d bytes)",
					bp.ID, f.Name, tsym.Size)
			}
			rel, err := isa.JmpRel32To(pf.TrampolineAt, paddr)
			if err != nil {
				return nil, fmt.Errorf("prepare %s/%s: trampoline: %w", bp.ID, f.Name, err)
			}
			pf.TrampolineBytes = isa.EncodeJmpRel32(rel)
		}
		p.Funcs = append(p.Funcs, pf)
	}
	return p, nil
}

// preparedInit is the bytes Prepare installs for g: its Init, or zeros
// for a new variable that has none.
func preparedInit(g GlobalEdit) []byte {
	if g.Init == nil && g.New {
		return make([]byte, g.Size)
	}
	return g.Init
}

func alignUp(v, a uint64) uint64 { return (v + a - 1) &^ (a - 1) }
