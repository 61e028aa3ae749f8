package patch

import (
	"crypto/sha256"
	"encoding/binary"
	"fmt"
	"slices"

	"kshot/internal/isa"
	"kshot/internal/kcrypto"
)

// Wire format of the patch package passed from the SGX enclave to the
// SMM handler through mem_W (Figure 3 of the paper). Each function
// entry carries {sequence, opt, type, flags, taddr, paddr, size, hash,
// payload, trampoline}; the package ends with a whole-package digest
// so header tampering is as detectable as payload tampering.

// Wire format constants.
const (
	wireMagic   = "KSPK"
	wireVersion = 1
)

// Flag bits in the function header.
const (
	flagNew uint8 = 1 << iota
	flagTraced
)

// Package is the decoded wire package as the SMM handler sees it.
type Package struct {
	Op            Op
	HashAlg       kcrypto.HashAlg
	ID            string
	KernelVersion string
	Funcs         []PreparedFunc
	Globals       []PreparedGlobal

	// FuncHashes holds the header-declared payload digest of each
	// function, to be compared against a recomputation (§V-C step
	// one).
	FuncHashes [][kcrypto.DigestSize]byte
}

// funcHeaderSize is the fixed part of a function entry: seq, type,
// flags, four addresses and sizes, payload length and payload hash.
const funcHeaderSize = 2 + 1 + 1 + 4*8 + 4 + kcrypto.DigestSize

// globalHeaderSize is the fixed part of a global entry: name length,
// address and init length.
const globalHeaderSize = 1 + 8 + 4

// packageSize is the length of a wire package's header and trailing
// digest around its entries.
func packageSize(id, kernelVersion string) int {
	return len(wireMagic) + 3 + 1 + len(id) + 1 + len(kernelVersion) + 2 + 2 + kcrypto.DigestSize
}

// MarshalSize is the length of p's wire package: what AppendMarshal
// appends for it.
func MarshalSize(p *Prepared) int {
	n := packageSize(p.ID, p.KernelVersion)
	for _, f := range p.Funcs {
		n += funcHeaderSize + len(f.Payload) + 1 + len(f.Name)
		if f.TAddr != 0 {
			n += len(f.TrampolineBytes)
		}
	}
	for _, g := range p.Globals {
		n += globalHeaderSize + len(g.Name) + len(g.Init)
	}
	return n
}

// AppendMarshal appends the wire encoding of a prepared patch to dst.
// On error it returns dst as it was.
func AppendMarshal(dst []byte, p *Prepared, op Op, alg kcrypto.HashAlg) ([]byte, error) {
	start := len(dst)
	b := slices.Grow(dst, MarshalSize(p))
	b = append(b, wireMagic...)
	b = append(b, wireVersion, byte(op), byte(alg))
	var err error
	if b, err = appendStr8(b, p.ID); err != nil {
		return dst, err
	}
	if b, err = appendStr8(b, p.KernelVersion); err != nil {
		return dst, err
	}
	b = binary.LittleEndian.AppendUint16(b, uint16(len(p.Funcs)))
	b = binary.LittleEndian.AppendUint16(b, uint16(len(p.Globals)))

	for _, f := range p.Funcs {
		if len(f.Payload) > 1<<31 {
			return dst, fmt.Errorf("marshal %s: payload too large", f.Name)
		}
		sum, err := kcrypto.Sum(alg, f.Payload)
		if err != nil {
			return dst, err
		}
		b = binary.LittleEndian.AppendUint16(b, f.Seq)
		var flags uint8
		if f.New {
			flags |= flagNew
		}
		if f.Traced {
			flags |= flagTraced
		}
		b = append(b, byte(f.Type), flags)
		b = binary.LittleEndian.AppendUint64(b, f.TAddr)
		b = binary.LittleEndian.AppendUint64(b, f.TSize)
		b = binary.LittleEndian.AppendUint64(b, f.PAddr)
		b = binary.LittleEndian.AppendUint64(b, f.TrampolineAt)
		b = binary.LittleEndian.AppendUint32(b, uint32(len(f.Payload)))
		b = append(b, sum[:]...)
		b = append(b, f.Payload...)
		if f.TAddr != 0 {
			if len(f.TrampolineBytes) != isa.LenBranch {
				return dst, fmt.Errorf("marshal %s: trampoline must be 5 bytes", f.Name)
			}
			b = append(b, f.TrampolineBytes...)
		}
		// Name travels after the fixed header (for journaling and
		// diagnostics on the SMM side).
		if b, err = appendStr8(b, f.Name); err != nil {
			return dst, err
		}
	}

	for _, g := range p.Globals {
		if b, err = appendStr8(b, g.Name); err != nil {
			return dst, err
		}
		b = binary.LittleEndian.AppendUint64(b, g.Addr)
		b = binary.LittleEndian.AppendUint32(b, uint32(len(g.Init)))
		b = append(b, g.Init...)
	}

	// Whole-package digest (always SHA-256: header integrity is not
	// the ablation's subject).
	sum := sha256.Sum256(b[start:])
	return append(b, sum[:]...), nil
}

// Unmarshal decodes and structurally validates a wire package,
// including the whole-package digest. Per-function payload digests are
// surfaced for the caller to verify (the SMM handler recomputes them
// as its own integrity step). The package's byte fields — payloads,
// trampolines and global inits — alias data: the caller owns data, and
// must neither change it while it uses the package nor keep a byte
// field past that without copying it.
func Unmarshal(data []byte) (*Package, error) {
	if len(data) < len(wireMagic)+3+kcrypto.DigestSize {
		return nil, fmt.Errorf("package: truncated (%d bytes)", len(data))
	}
	body := data[:len(data)-kcrypto.DigestSize]
	var declared [kcrypto.DigestSize]byte
	copy(declared[:], data[len(body):])
	sum, err := kcrypto.Sum(kcrypto.HashSHA256, body)
	if err != nil {
		return nil, err
	}
	if sum != declared {
		return nil, fmt.Errorf("package: whole-package digest mismatch")
	}

	r := &reader{buf: body}
	if string(r.bytes(4)) != wireMagic {
		return nil, fmt.Errorf("package: bad magic")
	}
	if v := r.u8(); v != wireVersion {
		return nil, fmt.Errorf("package: unsupported version %d", v)
	}
	pkg := &Package{}
	pkg.Op = Op(r.u8())
	if pkg.Op != OpPatch && pkg.Op != OpRollback {
		return nil, fmt.Errorf("package: bad op %d", pkg.Op)
	}
	pkg.HashAlg = kcrypto.HashAlg(r.u8())
	pkg.ID = r.str8()
	pkg.KernelVersion = r.str8()
	nf := int(r.u16())
	ng := int(r.u16())
	// Every entry takes at least its fixed header, so counts the rest
	// of the input cannot hold are refused before anything is sized
	// for them.
	if r.err == nil && nf*(funcHeaderSize+1)+ng*globalHeaderSize > len(r.buf)-r.pos {
		return nil, fmt.Errorf("package: %d functions and %d globals overrun the input", nf, ng)
	}
	pkg.Funcs = make([]PreparedFunc, 0, nf)
	pkg.FuncHashes = make([][kcrypto.DigestSize]byte, 0, nf)
	pkg.Globals = make([]PreparedGlobal, 0, ng)

	for i := 0; i < nf; i++ {
		var f PreparedFunc
		f.Seq = r.u16()
		f.Type = Type(r.u8())
		flags := r.u8()
		if flags&^(flagNew|flagTraced) != 0 {
			return nil, fmt.Errorf("package: func %d: unknown flags %#x", i, flags)
		}
		f.New = flags&flagNew != 0
		f.Traced = flags&flagTraced != 0
		f.TAddr = r.u64()
		f.TSize = r.u64()
		f.PAddr = r.u64()
		f.TrampolineAt = r.u64()
		size := int(r.u32())
		var h [kcrypto.DigestSize]byte
		copy(h[:], r.bytes(kcrypto.DigestSize))
		f.Payload = r.blob(size)
		if f.TAddr != 0 {
			f.TrampolineBytes = r.bytes(isa.LenBranch)
		}
		f.Name = r.str8()
		if r.err != nil {
			return nil, fmt.Errorf("package: func %d: %w", i, r.err)
		}
		pkg.Funcs = append(pkg.Funcs, f)
		pkg.FuncHashes = append(pkg.FuncHashes, h)
	}
	for i := 0; i < ng; i++ {
		var g PreparedGlobal
		g.Name = r.str8()
		g.Addr = r.u64()
		n := int(r.u32())
		g.Init = r.blob(n)
		if r.err != nil {
			return nil, fmt.Errorf("package: global %d: %w", i, r.err)
		}
		pkg.Globals = append(pkg.Globals, g)
	}
	if r.err != nil {
		return nil, r.err
	}
	if r.pos != len(r.buf) {
		return nil, fmt.Errorf("package: %d trailing bytes", len(r.buf)-r.pos)
	}
	return pkg, nil
}

func appendStr8(b []byte, s string) ([]byte, error) {
	if len(s) > 255 {
		return nil, fmt.Errorf("string field too long (%d bytes)", len(s))
	}
	return append(append(b, uint8(len(s))), s...), nil
}

// reader is a bounds-checked sequential decoder.
type reader struct {
	buf []byte
	pos int
	err error
}

func (r *reader) bytes(n int) []byte {
	if r.err != nil {
		return nil
	}
	if n < 0 || r.pos+n > len(r.buf) {
		r.err = fmt.Errorf("truncated at offset %d (want %d bytes)", r.pos, n)
		return nil
	}
	out := r.buf[r.pos : r.pos+n : r.pos+n]
	r.pos += n
	return out
}

// blob returns the next n bytes as a slice of the input, or nil when n
// is 0.
func (r *reader) blob(n int) []byte {
	if n == 0 {
		return nil
	}
	return r.bytes(n)
}

func (r *reader) u8() uint8 {
	b := r.bytes(1)
	if b == nil {
		return 0
	}
	return b[0]
}

func (r *reader) u16() uint16 {
	b := r.bytes(2)
	if b == nil {
		return 0
	}
	return binary.LittleEndian.Uint16(b)
}

func (r *reader) u32() uint32 {
	b := r.bytes(4)
	if b == nil {
		return 0
	}
	return binary.LittleEndian.Uint32(b)
}

func (r *reader) u64() uint64 {
	b := r.bytes(8)
	if b == nil {
		return 0
	}
	return binary.LittleEndian.Uint64(b)
}

func (r *reader) str8() string {
	n := int(r.u8())
	return string(r.bytes(n))
}
