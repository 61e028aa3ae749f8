package kernel

import (
	"fmt"

	"kshot/internal/isa"
	"kshot/internal/machine"
	"kshot/internal/mem"
)

// Region names and segment sizes of the booted kernel.
const (
	RegionText = "kernel.text"
	RegionData = "kernel.data"
	RegionHeap = "kernel.heap"

	// TextRegionSize and DataRegionSize bound the mapped segments.
	// They exceed any image we build so a KUP-style whole-kernel
	// replacement fits in place.
	TextRegionSize = 4 << 20
	DataRegionSize = 4 << 20
	HeapBase       = DataBase + DataRegionSize
	HeapSize       = 2 << 20

	// DefaultMaxSteps bounds one syscall execution.
	DefaultMaxSteps = 2_000_000
)

// Kernel is a booted simulated kernel.
type Kernel struct {
	M   *machine.Machine
	Img *isa.Image
	Res *mem.Reserved

	cfg BuildConfig
}

// Boot maps the kernel image onto the machine with Linux-like page
// attributes and reserves the KShot region (the grub/paging_init step
// of §V-B). Kernel text is kernel-writable, as on a machine whose
// (compromisable) kernel controls its own page tables — KShot's point
// is that patch integrity must not depend on the kernel respecting
// write protection.
func Boot(m *machine.Machine, img *isa.Image, cfg BuildConfig, layout mem.ReservedLayout) (*Kernel, error) {
	if len(img.Text) > TextRegionSize || len(img.Data) > DataRegionSize {
		return nil, fmt.Errorf("boot: image exceeds segment bounds (%d text, %d data)", len(img.Text), len(img.Data))
	}
	if _, err := m.Mem.Map(RegionText, TextBase, TextRegionSize, mem.Perms{
		Kernel: mem.PermRWX,
		SMM:    mem.PermRWX,
	}); err != nil {
		return nil, fmt.Errorf("boot: %w", err)
	}
	// Data and heap are not executable at any privilege — nothing ever
	// runs code from them, and keeping X off means ordinary data writes
	// do not count as code modification for the block-dispatch engine's
	// epoch-keyed cache (mem.Physical.CodeEpoch).
	if _, err := m.Mem.Map(RegionData, DataBase, DataRegionSize, mem.Perms{
		Kernel: mem.PermRW,
		SMM:    mem.PermRW,
	}); err != nil {
		return nil, fmt.Errorf("boot: %w", err)
	}
	if _, err := m.Mem.Map(RegionHeap, HeapBase, HeapSize, mem.Perms{
		User:   mem.PermRW,
		Kernel: mem.PermRW,
		SMM:    mem.PermRW,
	}); err != nil {
		return nil, fmt.Errorf("boot: %w", err)
	}
	res, err := mem.MapReservedLayout(m.Mem, ReservedBase, layout)
	if err != nil {
		return nil, fmt.Errorf("boot: %w", err)
	}
	k := &Kernel{M: m, Img: img, Res: res, cfg: cfg}
	if err := k.loadImage(img); err != nil {
		return nil, err
	}
	return k, nil
}

// loadImage copies image bytes into the mapped segments (done at boot
// privilege, i.e. SMM-level firmware loader).
func (k *Kernel) loadImage(img *isa.Image) error {
	if err := k.M.Mem.Write(mem.PrivSMM, img.TextBase, img.Text); err != nil {
		return fmt.Errorf("load text: %w", err)
	}
	if len(img.Data) > 0 {
		if err := k.M.Mem.Write(mem.PrivSMM, img.DataBase, img.Data); err != nil {
			return fmt.Errorf("load data: %w", err)
		}
	}
	return nil
}

// Fork rebinds this kernel onto m2, a machine forked from k.M. The
// image pointer is shared (isa.Image is immutable after build; even
// ReplaceImage swaps the pointer rather than mutating), the mapped
// segments and loaded bytes already exist in the forked memory, and
// the Reserved view is re-resolved against the fork's duplicated
// region table so per-fork permission changes (the SMRAM-style locks)
// never alias the template's regions.
func (k *Kernel) Fork(m2 *machine.Machine) (*Kernel, error) {
	if m2.Mem.Origin() != k.M.Mem {
		return nil, fmt.Errorf("kernel: fork target was not forked from this kernel's machine")
	}
	res, err := mem.ReservedFrom(m2.Mem)
	if err != nil {
		return nil, fmt.Errorf("kernel: %w", err)
	}
	return &Kernel{M: m2, Img: k.Img, Res: res, cfg: k.cfg}, nil
}

// Config returns the build configuration the kernel was compiled with.
func (k *Kernel) Config() BuildConfig { return k.cfg }

// Symbols returns the kernel symbol table (kallsyms).
func (k *Kernel) Symbols() *isa.SymTab { return k.Img.Symbols }

// FuncAddr returns the entry address of a kernel function.
func (k *Kernel) FuncAddr(name string) (uint64, error) {
	s, ok := k.Img.Symbols.Lookup(name)
	if !ok || s.Kind != isa.SymFunc {
		return 0, fmt.Errorf("kernel: no function %q", name)
	}
	return s.Addr, nil
}

// Call executes the named kernel function on the given vCPU — the
// simulation's syscall entry. It blocks until the call completes
// (including across any SMIs that pause the machine mid-call).
func (k *Kernel) Call(vcpu int, fn string, args ...uint64) (uint64, error) {
	return k.CallSteps(vcpu, fn, DefaultMaxSteps, args...)
}

// CallSteps is Call with an explicit step budget, for callers that park
// a vCPU in a busy-wait (block dispatch retires the same virtual steps
// in much less wall-clock, so a parked call needs a budget sized to the
// wait, not DefaultMaxSteps).
func (k *Kernel) CallSteps(vcpu int, fn string, maxSteps int, args ...uint64) (uint64, error) {
	addr, err := k.FuncAddr(fn)
	if err != nil {
		return 0, err
	}
	return k.M.VCPU(vcpu).Call(addr, maxSteps, args...)
}

// ReadGlobal reads a 64-bit kernel global by symbol name at kernel
// privilege.
func (k *Kernel) ReadGlobal(name string) (uint64, error) {
	s, ok := k.Img.Symbols.Lookup(name)
	if !ok || s.Kind != isa.SymObject {
		return 0, fmt.Errorf("kernel: no global %q", name)
	}
	return k.M.Mem.ReadU64(mem.PrivKernel, s.Addr)
}

// WriteGlobal writes a 64-bit kernel global by symbol name at kernel
// privilege.
func (k *Kernel) WriteGlobal(name string, v uint64) error {
	s, ok := k.Img.Symbols.Lookup(name)
	if !ok || s.Kind != isa.SymObject {
		return fmt.Errorf("kernel: no global %q", name)
	}
	return k.M.Mem.WriteU64(mem.PrivKernel, s.Addr, v)
}

// FuncBytes reads the current in-memory bytes of a kernel function
// (which may differ from the built image after patching or attack).
func (k *Kernel) FuncBytes(name string) ([]byte, error) {
	s, ok := k.Img.Symbols.Lookup(name)
	if !ok || s.Kind != isa.SymFunc {
		return nil, fmt.Errorf("kernel: no function %q", name)
	}
	buf := make([]byte, s.Size)
	if err := k.M.Mem.Read(mem.PrivKernel, s.Addr, buf); err != nil {
		return nil, err
	}
	return buf, nil
}

// ReplaceImage swaps in a complete new kernel image (the KUP-style
// whole-kernel update path). The machine must be quiescent; the new
// image must fit the existing segments.
func (k *Kernel) ReplaceImage(img *isa.Image) error {
	if len(img.Text) > TextRegionSize || len(img.Data) > DataRegionSize {
		return fmt.Errorf("replace: image exceeds segment bounds")
	}
	// Scrub the old text so stale code past the new image's end cannot
	// execute by accident. Zero releases whole frames back to the
	// sparse store instead of writing 4 MB of zeros.
	if err := k.M.Mem.Zero(mem.PrivSMM, TextBase, TextRegionSize); err != nil {
		return fmt.Errorf("replace: scrub: %w", err)
	}
	if err := k.loadImage(img); err != nil {
		return err
	}
	k.Img = img
	return nil
}
