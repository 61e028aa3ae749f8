package patch

import (
	"strings"
	"testing"

	"kshot/internal/isa"
	"kshot/internal/kcrypto"
	"kshot/internal/kernel"
	"kshot/internal/machine"
	"kshot/internal/mem"
)

// vulnFile is a subsystem with a Type 1 bug: missing bounds check.
const vulnFile = `
; drivers/widget.asm
.global widget_limit 8

.func widget_ioctl                ; (cmd) -> cmd*2, should clamp at 100
    mov r0, r1
    add r0, r1
    ret
.endfunc

.func widget_helper inline
    addi r0, 3
    ret
.endfunc

.func widget_query               ; calls the inline helper
    mov r0, r1
    call widget_helper
    ret
.endfunc
`

// vulnFilePatched fixes widget_ioctl (Type 1 change).
const vulnFilePatched = `
; drivers/widget.asm (patched)
.global widget_limit 8

.func widget_ioctl
    mov r0, r1
    add r0, r1
    cmpi r0, 100
    jle .ok
    movi r0, 100
.ok:
    ret
.endfunc

.func widget_helper inline
    addi r0, 3
    ret
.endfunc

.func widget_query
    mov r0, r1
    call widget_helper
    ret
.endfunc
`

// vulnFileInlinePatched changes only the inline helper (Type 2).
const vulnFileInlinePatched = `
; drivers/widget.asm (inline helper patched)
.global widget_limit 8

.func widget_ioctl
    mov r0, r1
    add r0, r1
    ret
.endfunc

.func widget_helper inline
    addi r0, 4
    ret
.endfunc

.func widget_query
    mov r0, r1
    call widget_helper
    ret
.endfunc
`

// vulnFileGlobalPatched adds a global consulted by widget_ioctl
// (Type 3) and a brand-new function.
const vulnFileGlobalPatched = `
; drivers/widget.asm (global added)
.global widget_limit 8
.data   widget_cap   64 00 00 00 00 00 00 00

.func widget_ioctl
    mov r0, r1
    add r0, r1
    loadg r2, widget_cap
    cmp r0, r2
    jle .ok
    call widget_clamp
.ok:
    ret
.endfunc

.func widget_clamp
    loadg r0, widget_cap
    ret
.endfunc

.func widget_helper inline
    addi r0, 3
    ret
.endfunc

.func widget_query
    mov r0, r1
    call widget_helper
    ret
.endfunc
`

// buildPair builds pre and post kernels sharing the 3.14 base tree.
func buildPair(t *testing.T, postWidget string) (ImagePair, ImagePair, *kernel.SourceTree) {
	t.Helper()
	st, err := kernel.BaseTree("3.14")
	if err != nil {
		t.Fatal(err)
	}
	st.AddFile("drivers/widget.asm", vulnFile)
	preImg, preUnit, err := st.Build()
	if err != nil {
		t.Fatal(err)
	}
	post := st.Clone()
	if err := post.Apply(kernel.SourcePatch{ID: "TEST", Files: map[string]string{"drivers/widget.asm": postWidget}}); err != nil {
		t.Fatal(err)
	}
	postImg, postUnit, err := post.Build()
	if err != nil {
		t.Fatal(err)
	}
	return ImagePair{preImg, preUnit}, ImagePair{postImg, postUnit}, st
}

func defaultPlacement() Placement {
	return Placement{
		MemXBase:      kernel.ReservedBase + mem.MemRWSize + mem.MemWSize,
		MemXSize:      mem.MemXSize,
		DataAllocBase: kernel.ReservedBase + 4096,
		DataAllocSize: mem.MemRWSize - 4096,
	}
}

func TestBuildType1(t *testing.T) {
	pre, post, _ := buildPair(t, vulnFilePatched)
	bp, err := Build("CVE-TEST-1", "3.14", pre, post)
	if err != nil {
		t.Fatal(err)
	}
	if got := bp.FuncNames(); len(got) != 1 || got[0] != "widget_ioctl" {
		t.Fatalf("patched funcs = %v, want [widget_ioctl]", got)
	}
	if bp.Funcs[0].Type != Type1 {
		t.Errorf("type = %v, want 1", bp.Funcs[0].Type)
	}
	if bp.Funcs[0].New || !bp.Funcs[0].Traced {
		t.Errorf("flags wrong: %+v", bp.Funcs[0])
	}
	if len(bp.Globals) != 0 {
		t.Errorf("unexpected global edits: %v", bp.Globals)
	}
	if ts := bp.Types(); len(ts) != 1 || ts[0] != Type1 {
		t.Errorf("Types() = %v", ts)
	}
}

func TestBuildType2InlineImplication(t *testing.T) {
	pre, post, _ := buildPair(t, vulnFileInlinePatched)
	bp, err := Build("CVE-TEST-2", "3.14", pre, post)
	if err != nil {
		t.Fatal(err)
	}
	// widget_helper has no binary symbol; its caller widget_query is
	// implicated.
	if got := bp.FuncNames(); len(got) != 1 || got[0] != "widget_query" {
		t.Fatalf("patched funcs = %v, want [widget_query]", got)
	}
	if bp.Funcs[0].Type != Type2 {
		t.Errorf("type = %v, want 2", bp.Funcs[0].Type)
	}
}

func TestBuildType3GlobalsAndNewFunc(t *testing.T) {
	pre, post, _ := buildPair(t, vulnFileGlobalPatched)
	bp, err := Build("CVE-TEST-3", "3.14", pre, post)
	if err != nil {
		t.Fatal(err)
	}
	names := bp.FuncNames()
	if len(names) != 2 {
		t.Fatalf("patched funcs = %v, want ioctl + clamp", names)
	}
	var ioctl, clamp *FuncPatch
	for i := range bp.Funcs {
		switch bp.Funcs[i].Name {
		case "widget_ioctl":
			ioctl = &bp.Funcs[i]
		case "widget_clamp":
			clamp = &bp.Funcs[i]
		}
	}
	if ioctl == nil || clamp == nil {
		t.Fatalf("missing expected funcs: %v", names)
	}
	if ioctl.Type != Type3 {
		t.Errorf("ioctl type = %v, want 3", ioctl.Type)
	}
	if !clamp.New {
		t.Error("widget_clamp not marked new")
	}
	if len(bp.Globals) != 1 || bp.Globals[0].Name != "widget_cap" || !bp.Globals[0].New {
		t.Errorf("globals = %+v", bp.Globals)
	}
	if bp.PayloadBytes() == 0 {
		t.Error("zero payload bytes")
	}
}

func TestBuildIdenticalRejected(t *testing.T) {
	pre, _, _ := buildPair(t, vulnFilePatched)
	if _, err := Build("X", "3.14", pre, pre); err == nil {
		t.Error("identical builds produced a patch")
	}
}

func TestBuildWarnsOnResizedGlobal(t *testing.T) {
	resized := strings.Replace(vulnFile, ".global widget_limit 8", ".global widget_limit 16", 1)
	pre, post, _ := buildPair(t, resized)
	bp, err := Build("CVE-RESIZE", "3.14", pre, post)
	if err != nil {
		t.Fatal(err)
	}
	if len(bp.Warnings) == 0 {
		t.Error("no warning for resized global")
	}
	if len(bp.Globals) != 1 || !bp.Globals[0].New || bp.Globals[0].Size != 16 {
		t.Errorf("resized global edit = %+v", bp.Globals)
	}
}

func TestPrepareTrampolineArithmetic(t *testing.T) {
	pre, post, _ := buildPair(t, vulnFilePatched)
	bp, err := Build("CVE-TEST-1", "3.14", pre, post)
	if err != nil {
		t.Fatal(err)
	}
	place := defaultPlacement()
	p, err := Prepare(bp, pre.Img.Symbols, place, 0, 0)
	if err != nil {
		t.Fatal(err)
	}
	f := p.Funcs[0]
	tsym, _ := pre.Img.Symbols.Lookup("widget_ioctl")
	if f.TAddr != tsym.Addr {
		t.Errorf("taddr = %#x, want %#x", f.TAddr, tsym.Addr)
	}
	// Traced target: trampoline after the 5-byte prologue.
	if f.TrampolineAt != tsym.Addr+isa.FtracePrologueLen {
		t.Errorf("trampoline at %#x, want %#x", f.TrampolineAt, tsym.Addr+5)
	}
	if f.PAddr < place.MemXBase || f.PAddr%16 != 0 {
		t.Errorf("paddr %#x misplaced", f.PAddr)
	}
	// Decode the trampoline and verify it lands exactly on paddr —
	// the paper's p.paddr − p.taddr − 5 arithmetic.
	inst, n, err := isa.Decode(f.TrampolineBytes)
	if err != nil || n != 5 || inst.Op != isa.OpJmp {
		t.Fatalf("trampoline decode: %v %v", inst, err)
	}
	if got := uint64(int64(f.TrampolineAt) + 5 + inst.Imm); got != f.PAddr {
		t.Errorf("trampoline target %#x, want %#x", got, f.PAddr)
	}
	if p.MemXUsed == 0 {
		t.Error("MemXUsed = 0")
	}
}

func TestPrepareErrors(t *testing.T) {
	pre, post, _ := buildPair(t, vulnFilePatched)
	bp, err := Build("CVE-TEST-1", "3.14", pre, post)
	if err != nil {
		t.Fatal(err)
	}
	place := defaultPlacement()
	// mem_X exhausted.
	if _, err := Prepare(bp, pre.Img.Symbols, place, place.MemXSize-4, 0); err == nil {
		t.Error("exhausted mem_X accepted")
	}
	// Unresolvable target function (wrong kernel's symbols).
	empty, _ := isa.NewSymTab(nil)
	if _, err := Prepare(bp, empty, place, 0, 0); err == nil {
		t.Error("unknown target function accepted")
	}
}

// applyPrepared writes a prepared patch into machine memory the way
// the SMM handler will (payloads to mem_X, globals, trampolines).
func applyPrepared(t *testing.T, m *machine.Machine, p *Prepared) {
	t.Helper()
	for _, g := range p.Globals {
		if g.Init != nil {
			if err := m.Mem.Write(mem.PrivSMM, g.Addr, g.Init); err != nil {
				t.Fatal(err)
			}
		}
	}
	for _, f := range p.Funcs {
		if err := m.Mem.Write(mem.PrivSMM, f.PAddr, f.Payload); err != nil {
			t.Fatal(err)
		}
		if f.TAddr != 0 {
			if err := m.Mem.Write(mem.PrivSMM, f.TrampolineAt, f.TrampolineBytes); err != nil {
				t.Fatal(err)
			}
		}
	}
}

// TestEndToEndExecution is the pipeline's ground truth: build the
// patch, prepare it, apply it to a live machine, and check the kernel
// now computes post-patch results — including relocated calls back
// into unpatched kernel code and new functions in mem_X.
func TestEndToEndExecution(t *testing.T) {
	cases := []struct {
		name    string
		postSrc string
		fn      string
		arg     uint64
		pre     uint64
		post    uint64
	}{
		{"type1 clamp", vulnFilePatched, "widget_ioctl", 400, 800, 100},
		{"type2 helper", vulnFileInlinePatched, "widget_query", 10, 13, 14},
		{"type3 global", vulnFileGlobalPatched, "widget_ioctl", 400, 800, 100},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			pre, post, st := buildPair(t, tc.postSrc)
			m, err := machine.New(machine.Config{NumVCPUs: 1})
			if err != nil {
				t.Fatal(err)
			}
			defer m.Stop()
			k, err := kernel.Boot(m, pre.Img, st.Config(), mem.ReservedLayout{})
			if err != nil {
				t.Fatal(err)
			}
			got, err := k.Call(0, tc.fn, tc.arg)
			if err != nil {
				t.Fatal(err)
			}
			if got != tc.pre {
				t.Fatalf("pre-patch %s(%d) = %d, want %d", tc.fn, tc.arg, got, tc.pre)
			}

			bp, err := Build("CVE-E2E", "3.14", pre, post)
			if err != nil {
				t.Fatal(err)
			}
			place := defaultPlacement()
			p, err := Prepare(bp, pre.Img.Symbols, place, 0, 0)
			if err != nil {
				t.Fatal(err)
			}
			applyPrepared(t, m, p)

			got, err = k.Call(0, tc.fn, tc.arg)
			if err != nil {
				t.Fatalf("post-patch call: %v", err)
			}
			if got != tc.post {
				t.Errorf("post-patch %s(%d) = %d, want %d", tc.fn, tc.arg, got, tc.post)
			}
			// Unrelated kernel functionality is untouched.
			if v, err := k.Call(0, "sys_compute", 10, 4); err != nil || v != (10+4)*(10-4)+10 {
				t.Errorf("sys_compute broken after patch: %d, %v", v, err)
			}
		})
	}
}

func TestFormatRoundTrip(t *testing.T) {
	pre, post, _ := buildPair(t, vulnFileGlobalPatched)
	bp, err := Build("CVE-FMT", "3.14", pre, post)
	if err != nil {
		t.Fatal(err)
	}
	p, err := Prepare(bp, pre.Img.Symbols, defaultPlacement(), 0, 0)
	if err != nil {
		t.Fatal(err)
	}
	wire, err := AppendMarshal(nil, p, OpPatch, kcrypto.HashSHA256)
	if err != nil {
		t.Fatal(err)
	}
	// The enclave writes a package's length, MarshalSize, before it
	// marshals the package in place: a size that misses a field would
	// misframe the result block.
	if len(wire) != MarshalSize(p) {
		t.Errorf("AppendMarshal wrote %d bytes; MarshalSize says %d", len(wire), MarshalSize(p))
	}
	pkg, err := Unmarshal(wire)
	if err != nil {
		t.Fatal(err)
	}
	if pkg.ID != "CVE-FMT" || pkg.KernelVersion != "3.14" || pkg.Op != OpPatch {
		t.Errorf("header = %+v", pkg)
	}
	if len(pkg.Funcs) != len(p.Funcs) || len(pkg.Globals) != len(p.Globals) {
		t.Fatalf("counts: %d/%d funcs, %d/%d globals",
			len(pkg.Funcs), len(p.Funcs), len(pkg.Globals), len(p.Globals))
	}
	for i := range pkg.Funcs {
		a, b := pkg.Funcs[i], p.Funcs[i]
		if a.Name != b.Name || a.TAddr != b.TAddr || a.PAddr != b.PAddr ||
			a.Type != b.Type || a.New != b.New || a.Traced != b.Traced ||
			string(a.Payload) != string(b.Payload) ||
			string(a.TrampolineBytes) != string(b.TrampolineBytes) {
			t.Errorf("func %d mismatch:\n%+v\n%+v", i, a, b)
		}
		// Declared payload digest verifies.
		sum, err := kcrypto.Sum(pkg.HashAlg, a.Payload)
		if err != nil || sum != pkg.FuncHashes[i] {
			t.Errorf("func %d digest mismatch", i)
		}
	}
}

func TestFormatDetectsCorruption(t *testing.T) {
	pre, post, _ := buildPair(t, vulnFilePatched)
	bp, err := Build("CVE-COR", "3.14", pre, post)
	if err != nil {
		t.Fatal(err)
	}
	p, err := Prepare(bp, pre.Img.Symbols, defaultPlacement(), 0, 0)
	if err != nil {
		t.Fatal(err)
	}
	wire, err := AppendMarshal(nil, p, OpPatch, kcrypto.HashSHA256)
	if err != nil {
		t.Fatal(err)
	}
	// Every single-byte corruption must be caught by the package
	// digest (or fail structural validation).
	for i := 0; i < len(wire); i += 13 {
		mut := append([]byte(nil), wire...)
		mut[i] ^= 0x40
		if _, err := Unmarshal(mut); err == nil {
			t.Errorf("corruption at byte %d undetected", i)
		}
	}
	// Truncations must be caught.
	for _, n := range []int{0, 1, 10, len(wire) / 2, len(wire) - 1} {
		if _, err := Unmarshal(wire[:n]); err == nil {
			t.Errorf("truncation to %d bytes undetected", n)
		}
	}
}

func TestMarshalRollback(t *testing.T) {
	prefix := []byte("result block")
	wire, err := AppendMarshal(prefix, &Prepared{ID: "CVE-RB", KernelVersion: "3.14"}, OpRollback, kcrypto.HashSHA256)
	if err != nil {
		t.Fatal(err)
	}
	if string(wire[:len(prefix)]) != string(prefix) {
		t.Fatalf("AppendMarshal overwrote its prefix: %q", wire[:len(prefix)])
	}
	wire = wire[len(prefix):]
	pkg, err := Unmarshal(wire)
	if err != nil {
		t.Fatal(err)
	}
	if pkg.Op != OpRollback || pkg.ID != "CVE-RB" || len(pkg.Funcs) != 0 {
		t.Errorf("rollback pkg = %+v", pkg)
	}
}

func TestPrepareSequentialPlacement(t *testing.T) {
	// Two patches prepared back to back must not overlap in mem_X.
	pre, post, _ := buildPair(t, vulnFilePatched)
	bp, err := Build("CVE-A", "3.14", pre, post)
	if err != nil {
		t.Fatal(err)
	}
	place := defaultPlacement()
	p1, err := Prepare(bp, pre.Img.Symbols, place, 0, 0)
	if err != nil {
		t.Fatal(err)
	}
	p2, err := Prepare(bp, pre.Img.Symbols, place, p1.MemXUsed, p1.DataUsed)
	if err != nil {
		t.Fatal(err)
	}
	if p2.Funcs[0].PAddr < p1.Funcs[0].PAddr+uint64(len(p1.Funcs[0].Payload)) {
		t.Errorf("second patch overlaps first: %#x vs %#x+%d",
			p2.Funcs[0].PAddr, p1.Funcs[0].PAddr, len(p1.Funcs[0].Payload))
	}
}
