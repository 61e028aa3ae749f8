// Package baseline implements the kernel live patching systems KShot
// is compared against in Tables IV and V: a kpatch-like function
// redirector driven by ftrace and stop_machine, a KUP-like
// whole-kernel replacement with application checkpoint/restore, and a
// KARMA-like in-kernel instruction/function patcher.
//
// All three run on the same simulated machine and CVE benchmark as
// KShot, but — faithfully to the originals — they execute at *kernel*
// privilege and trust the kernel: their patching state lives in
// kernel-accessible memory and their writes are ordinary kernel
// writes. That is exactly the property the comparison probes: with a
// kernel-level attacker active, their deployed patches can be
// reverted undetected, while KShot's SMM introspection catches and
// repairs the reversion.
package baseline

import (
	"errors"
	"fmt"
	"time"

	"kshot/internal/isa"
	"kshot/internal/kernel"
	"kshot/internal/machine"
	"kshot/internal/mem"
	"kshot/internal/patch"
	"kshot/internal/timing"
)

// Module region: where in-kernel patchers place replacement code (the
// analogue of module/vmalloc space).
const (
	RegionModule    = "kernel.module"
	ModuleBase      = 0x700_0000
	ModuleSize      = 4 << 20
	moduleFuncAlign = 16
)

// Result reports one baseline patch application.
type Result struct {
	// Pause is the virtual time the OS was stopped.
	Pause time.Duration
	// Total is the virtual end-to-end time including preparation.
	Total time.Duration
	// MemoryBytes is the extra memory the mechanism consumed.
	MemoryBytes uint64
}

// Target is a machine+kernel a baseline patcher operates on.
type Target struct {
	M     *machine.Machine
	K     *kernel.Kernel
	Clock *timing.Clock
	Model timing.Model

	// pre is the running build; trees for rebuilds.
	preTree *kernel.SourceTree
	pre     patch.ImagePair

	rootkit   *Rootkit
	moduleUse uint64
}

// NewTarget boots a vulnerable kernel (version + extra subsystem
// files) for baseline experiments.
func NewTarget(version string, extraFiles map[string]string, numVCPUs int) (*Target, error) {
	st, err := kernel.BaseTree(version)
	if err != nil {
		return nil, err
	}
	for _, name := range sortedKeys(extraFiles) {
		st.AddFile(name, extraFiles[name])
	}
	img, unit, err := st.Build()
	if err != nil {
		return nil, err
	}
	m, err := machine.New(machine.Config{NumVCPUs: numVCPUs})
	if err != nil {
		return nil, err
	}
	k, err := kernel.Boot(m, img, st.Config(), mem.ReservedLayout{})
	if err != nil {
		m.Stop()
		return nil, err
	}
	if _, err := m.Mem.Map(RegionModule, ModuleBase, ModuleSize, mem.Perms{
		Kernel: mem.PermRWX,
		SMM:    mem.PermRWX,
	}); err != nil {
		m.Stop()
		return nil, err
	}
	return &Target{
		M: m, K: k,
		Clock:   &timing.Clock{},
		Model:   timing.Calibrated(),
		preTree: st,
		pre:     patch.ImagePair{Img: img, Unit: unit},
	}, nil
}

// Close stops the target machine.
func (t *Target) Close() { t.M.Stop() }

// BuildPatch builds the binary patch locally — kernel-trusted systems
// prepare patches in (kernel-readable) host memory.
func (t *Target) BuildPatch(sp kernel.SourcePatch) (*patch.BinaryPatch, patch.ImagePair, error) {
	post := t.preTree.Clone()
	if err := post.Apply(sp); err != nil {
		return nil, patch.ImagePair{}, err
	}
	postImg, postUnit, err := post.Build()
	if err != nil {
		return nil, patch.ImagePair{}, err
	}
	pair := patch.ImagePair{Img: postImg, Unit: postUnit}
	bp, err := patch.Build(sp.ID, t.preTree.Config().Version, t.pre, pair)
	if err != nil {
		return nil, patch.ImagePair{}, err
	}
	return bp, pair, nil
}

// Rootkit models a kernel-level attacker resident in the target: it
// observes kernel memory writes (it owns the kernel) and reverts
// patches applied by kernel-trusted mechanisms. Against KShot the
// same attacker can still write to kernel text, but cannot see or
// forge SMM state — reversions are then caught by introspection.
type Rootkit struct {
	t *Target
	// saved entry bytes per function, captured before patching.
	saved map[string][]byte
}

// InstallRootkit plants the attacker: it snapshots the entry bytes of
// the functions it wants to keep vulnerable.
func (t *Target) InstallRootkit(functions []string) (*Rootkit, error) {
	rk := &Rootkit{t: t, saved: make(map[string][]byte)}
	for _, fn := range functions {
		sym, ok := t.K.Symbols().Lookup(fn)
		if !ok {
			return nil, fmt.Errorf("rootkit: no function %q", fn)
		}
		buf := make([]byte, 10)
		if err := t.M.Mem.Read(mem.PrivKernel, sym.Addr, buf); err != nil {
			return nil, err
		}
		rk.saved[fn] = buf
	}
	t.rootkit = rk
	return rk, nil
}

// Revert puts the saved (vulnerable) entry bytes back — the §V-D
// malicious patch reversion, performed at kernel privilege.
func (rk *Rootkit) Revert() error {
	for fn, bytes := range rk.saved {
		sym, ok := rk.t.K.Symbols().Lookup(fn)
		if !ok {
			return fmt.Errorf("rootkit: lost function %q", fn)
		}
		if err := rk.t.M.Mem.Write(mem.PrivKernel, sym.Addr, bytes); err != nil {
			return err
		}
	}
	return nil
}

// active reports whether a rootkit will fight this patch.
func (t *Target) activeRootkit() *Rootkit { return t.rootkit }

// Patcher is the interface the comparison harness (Table IV/V) uses.
type Patcher interface {
	// Name of the system.
	Name() string
	// Granularity of patching, as in Table V.
	Granularity() string
	// TCB of the mechanism, as in Table V.
	TCB() string
	// TrustsKernel reports whether a compromised kernel compromises
	// the mechanism.
	TrustsKernel() bool
	// Apply deploys a source patch to the target.
	Apply(t *Target, sp kernel.SourcePatch) (Result, error)
}

// ErrPatchTooLarge is returned by the KARMA-like patcher for patches
// beyond its in-place instruction budget.
var ErrPatchTooLarge = errors.New("baseline: patch exceeds instruction-level budget")

// allocModule reserves module space for a payload.
func (t *Target) allocModule(n int) (uint64, error) {
	cur := alignUp(t.moduleUse, moduleFuncAlign)
	if cur+uint64(n) > ModuleSize {
		return 0, errors.New("baseline: module space exhausted")
	}
	t.moduleUse = cur + uint64(n)
	return ModuleBase + cur, nil
}

func alignUp(v, a uint64) uint64 { return (v + a - 1) &^ (a - 1) }

// relocatePayload resolves a payload's relocations for placement at
// paddr, against the running kernel's symbols plus the patch's own
// new symbols.
func (t *Target) relocatePayload(f *patch.FuncPatch, paddr uint64, kernelSyms *isa.SymTab, newSyms map[string]uint64) ([]byte, error) {
	payload := append([]byte(nil), f.Payload...)
	for _, r := range f.Relocs {
		var base uint64
		if a, ok := newSyms[r.Sym]; ok {
			base = a
		} else if s, ok := kernelSyms.Lookup(r.Sym); ok {
			base = s.Addr
		} else {
			return nil, fmt.Errorf("baseline: unresolved symbol %q", r.Sym)
		}
		target := uint64(int64(base) + r.Addend)
		switch r.Kind {
		case patch.RelocBranch:
			rel, err := isa.JmpRel32To(paddr+uint64(r.Offset)-1, target)
			if err != nil {
				return nil, err
			}
			putU32(payload[r.Offset:], uint32(rel))
		case patch.RelocAbs64:
			putU64(payload[r.Offset:], target)
		}
	}
	return payload, nil
}

// installRedirect places a payload in module space and writes the
// entry trampoline — all at kernel privilege.
func (t *Target) installRedirect(f *patch.FuncPatch, kernelSyms *isa.SymTab, newSyms map[string]uint64) error {
	paddr, ok := newSyms[f.Name]
	if !ok {
		return fmt.Errorf("baseline: %s not allocated", f.Name)
	}
	payload, err := t.relocatePayload(f, paddr, kernelSyms, newSyms)
	if err != nil {
		return err
	}
	if err := t.M.Mem.Write(mem.PrivKernel, paddr, payload); err != nil {
		return err
	}
	if f.New {
		return nil
	}
	sym, ok := kernelSyms.Lookup(f.Name)
	if !ok {
		return fmt.Errorf("baseline: no target %q", f.Name)
	}
	at := sym.Addr
	if f.Traced {
		at += isa.FtracePrologueLen
	}
	rel, err := isa.JmpRel32To(at, paddr)
	if err != nil {
		return err
	}
	return t.M.Mem.Write(mem.PrivKernel, at, isa.EncodeJmpRel32(rel))
}

// writeInPlace relocates a payload for its original location and
// overwrites the old body (the instruction-level rewrite path).
func (t *Target) writeInPlace(f *patch.FuncPatch, at uint64, newSyms map[string]uint64) error {
	payload, err := t.relocatePayload(f, at, t.K.Symbols(), newSyms)
	if err != nil {
		return err
	}
	return t.M.Mem.Write(mem.PrivKernel, at, payload)
}

func putU32(b []byte, v uint32) {
	b[0], b[1], b[2], b[3] = byte(v), byte(v>>8), byte(v>>16), byte(v>>24)
}

func putU64(b []byte, v uint64) {
	for i := 0; i < 8; i++ {
		b[i] = byte(v >> (8 * i))
	}
}

// applyGlobals installs data edits at kernel privilege (existing
// globals only; kernel-trusted patchers allocate new globals in
// module space).
func (t *Target) applyGlobals(bp *patch.BinaryPatch, newGlobals map[string]uint64) error {
	for _, g := range bp.Globals {
		var addr uint64
		if g.New {
			a, err := t.allocModule(int(g.Size))
			if err != nil {
				return err
			}
			newGlobals[g.Name] = a
			addr = a
		} else {
			sym, ok := t.K.Symbols().Lookup(g.Name)
			if !ok {
				return fmt.Errorf("baseline: no global %q", g.Name)
			}
			addr = sym.Addr
		}
		init := g.Init
		if init == nil {
			init = make([]byte, g.Size)
		}
		if err := t.M.Mem.Write(mem.PrivKernel, addr, init); err != nil {
			return err
		}
	}
	return nil
}

func sortedKeys(m map[string]string) []string {
	out := make([]string, 0, len(m))
	for k := range m {
		out = append(out, k)
	}
	for i := 1; i < len(out); i++ {
		for j := i; j > 0 && out[j-1] > out[j]; j-- {
			out[j-1], out[j] = out[j], out[j-1]
		}
	}
	return out
}
