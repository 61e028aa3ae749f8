package mem

import "fmt"

// KShot reserves 18 MB of physical memory at boot (§V-B of the paper),
// split into three logical parts with asymmetric kernel-side access:
//
//   - mem_RW: small read/write area used for the per-patch channel
//     rekeying between the SGX enclave and the SMM handler.
//   - mem_W: write-only (from the kernel/user point of view) staging
//     area where the untrusted helper application deposits the
//     encrypted patch package. The kernel can write it but cannot read
//     it back, so a compromised kernel cannot inspect patch traffic.
//   - mem_X: execute-only area holding the decrypted patched function
//     text. The kernel can execute it (trampolines jump here) but can
//     neither read nor overwrite it.
//
// The SMM handler has full access to all three parts.
const (
	// ReservedTotalSize is the paper's 18 MB boot-time reservation.
	ReservedTotalSize = 18 << 20

	// MemRWSize holds the channel nonce/salt and handshake state.
	MemRWSize = 64 << 10

	// MemWSize stages the encrypted patch package plus rollback
	// journal entries written back by SMM.
	MemWSize = 6 << 20

	// MemXSize holds decrypted, executable patched function text.
	MemXSize = ReservedTotalSize - MemRWSize - MemWSize
)

// Canonical region names used throughout the system.
const (
	RegionMemRW = "kshot.mem_rw"
	RegionMemW  = "kshot.mem_w"
	RegionMemX  = "kshot.mem_x"
)

// Reserved describes the mapped KShot reserved region.
type Reserved struct {
	Base uint64 // base of the whole 18 MB reservation

	RW *Region // key-exchange area
	W  *Region // encrypted patch staging area
	X  *Region // executable patched text area
}

// RWBase returns the physical base address of mem_RW.
func (r *Reserved) RWBase() uint64 { return r.RW.Base }

// WBase returns the physical base address of mem_W.
func (r *Reserved) WBase() uint64 { return r.W.Base }

// XBase returns the physical base address of mem_X.
func (r *Reserved) XBase() uint64 { return r.X.Base }

// ReservedLayout sizes the three parts of the reservation. The zero
// value is replaced by the paper's default 18 MB split.
type ReservedLayout struct {
	RWSize uint64
	WSize  uint64
	XSize  uint64
}

// Total returns the layout's combined size.
func (l ReservedLayout) Total() uint64 { return l.RWSize + l.WSize + l.XSize }

// DefaultReservedLayout is the paper's 18 MB boot-time split.
func DefaultReservedLayout() ReservedLayout {
	return ReservedLayout{RWSize: MemRWSize, WSize: MemWSize, XSize: MemXSize}
}

// ReservedFrom rebinds a Reserved view to regions already mapped in m
// — the forked-Physical case, where Fork duplicated the region table
// with fresh Region objects and a Reserved built against the parent
// would silently alias the parent's permissions.
func ReservedFrom(m *Physical) (*Reserved, error) {
	rw := m.Region(RegionMemRW)
	w := m.Region(RegionMemW)
	x := m.Region(RegionMemX)
	if rw == nil || w == nil || x == nil {
		return nil, fmt.Errorf("reserved: kshot regions not mapped")
	}
	return &Reserved{Base: rw.Base, RW: rw, W: w, X: x}, nil
}

// MapReserved maps the three-part KShot reserved region at base with
// the paper's default 18 MB layout.
func MapReserved(m *Physical, base uint64) (*Reserved, error) {
	return MapReservedLayout(m, base, DefaultReservedLayout())
}

// MapReservedLayout maps the three-part KShot reserved region at base,
// applying the paper's asymmetric kernel-side page attributes. It is
// called at (simulated) boot, mirroring the grub + paging_init changes
// described in §V-B. A non-default layout supports experiments whose
// patches exceed the default split (the paper's 10 MB size row cannot
// fit an encrypted copy in mem_W and an executable copy in mem_X
// within 18 MB simultaneously).
func MapReservedLayout(m *Physical, base uint64, layout ReservedLayout) (*Reserved, error) {
	if layout == (ReservedLayout{}) {
		layout = DefaultReservedLayout()
	}
	if base%4096 != 0 {
		return nil, fmt.Errorf("map reserved: base %#x not page aligned", base)
	}
	if layout.RWSize == 0 || layout.WSize == 0 || layout.XSize == 0 {
		return nil, fmt.Errorf("map reserved: all three parts need non-zero size")
	}
	rw, err := m.Map(RegionMemRW, base, layout.RWSize, Perms{
		User:    PermRW,
		Kernel:  PermRW,
		Enclave: PermRW,
		SMM:     PermRWX,
	})
	if err != nil {
		return nil, fmt.Errorf("map reserved: %w", err)
	}
	w, err := m.Map(RegionMemW, base+layout.RWSize, layout.WSize, Perms{
		User:    PermW,
		Kernel:  PermW,
		Enclave: PermW,
		SMM:     PermRWX,
	})
	if err != nil {
		return nil, fmt.Errorf("map reserved: %w", err)
	}
	x, err := m.Map(RegionMemX, base+layout.RWSize+layout.WSize, layout.XSize, Perms{
		User:    PermNone,
		Kernel:  PermX,
		Enclave: PermNone,
		SMM:     PermRWX,
	})
	if err != nil {
		return nil, fmt.Errorf("map reserved: %w", err)
	}
	return &Reserved{Base: base, RW: rw, W: w, X: x}, nil
}
