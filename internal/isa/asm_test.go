package isa

import (
	"strings"
	"testing"
)

const sampleSrc = `
; sample translation unit
.global counter 8
.data   magic   de ad be ef

.func helper inline
    addi r0, 1
    ret
.endfunc

.func leaf notrace
    movi r0, 7
    ret
.endfunc

.func entry
    movi r1, 3
    cmpi r1, 0
    jz .zero
    call helper
    call leaf
    jmp .out
.zero:
    movi r0, 0
.out:
    ret
.endfunc
`

func TestParseSample(t *testing.T) {
	u, err := Parse(sampleSrc)
	if err != nil {
		t.Fatalf("parse: %v", err)
	}
	if len(u.Funcs) != 3 || len(u.Globals) != 2 {
		t.Fatalf("got %d funcs, %d globals", len(u.Funcs), len(u.Globals))
	}
	if f := u.Func("helper"); f == nil || !f.Inline {
		t.Error("helper not parsed as inline")
	}
	if f := u.Func("leaf"); f == nil || !f.NoTrace {
		t.Error("leaf not parsed as notrace")
	}
	if g := u.Global("counter"); g == nil || g.Size != 8 || g.Init != nil {
		t.Error("counter global wrong")
	}
	if g := u.Global("magic"); g == nil || g.Size != 4 || g.Init[0] != 0xde {
		t.Error("magic data wrong")
	}
	entry := u.Func("entry")
	targets := entry.CallTargets()
	if len(targets) != 2 || targets[0] != "helper" || targets[1] != "leaf" {
		t.Errorf("call targets = %v", targets)
	}
}

func TestParseErrors(t *testing.T) {
	cases := []struct{ name, src string }{
		{"nested func", ".func a\n.func b\n.endfunc\n.endfunc"},
		{"stray endfunc", ".endfunc"},
		{"dup func", ".func a\nret\n.endfunc\n.func a\nret\n.endfunc"},
		{"dup global", ".global x 8\n.global x 8"},
		{"global in func", ".func a\n.global x 8\n.endfunc"},
		{"unterminated", ".func a\nret"},
		{"label outside", ".lbl:"},
		{"label no dot", ".func a\nlbl:\nret\n.endfunc"},
		{"inst outside", "nop"},
		{"bad mnemonic", ".func a\nfrobnicate r1\n.endfunc"},
		{"bad reg", ".func a\nmov r99, r1\n.endfunc"},
		{"bad operand count", ".func a\nmov r1\n.endfunc"},
		{"bad imm", ".func a\nmovi r1, zzz\n.endfunc"},
		{"bad trap", ".func a\ntrap 999\n.endfunc"},
		{"bad mem", ".func a\nload r1, r2\n.endfunc"},
		{"bad disp", ".func a\nload r1, [r2+zz]\n.endfunc"},
		{"bad global size", ".global x 0"},
		{"bad data byte", ".data x zz"},
		{"bad directive", ".bogus x"},
		{"bad attr", ".func a wat\nret\n.endfunc"},
		{"func no name", ".func"},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			if _, err := Parse(c.src); err == nil {
				t.Errorf("parse succeeded for %q", c.src)
			}
		})
	}
}

func TestSyntaxErrorHasLine(t *testing.T) {
	_, err := Parse("\n\n.func a\nbogus\n.endfunc")
	se, ok := err.(*SyntaxError)
	if !ok {
		t.Fatalf("want *SyntaxError, got %T", err)
	}
	if se.Line != 4 {
		t.Errorf("line = %d, want 4", se.Line)
	}
	if !strings.Contains(se.Error(), "line 4") {
		t.Errorf("error text: %s", se.Error())
	}
}

func TestCommentsAndWhitespace(t *testing.T) {
	u, err := Parse("  ; lead\n.func a  # trailing\n  nop ; mid\n  ret\n.endfunc\n")
	if err != nil {
		t.Fatalf("parse: %v", err)
	}
	if len(u.Funcs[0].Items) != 2 {
		t.Errorf("items = %d, want 2", len(u.Funcs[0].Items))
	}
}

func TestMergeUnits(t *testing.T) {
	a := MustParse(".func f\nret\n.endfunc\n.global g 8")
	b := MustParse(".func h\nret\n.endfunc")
	if err := a.Merge(b); err != nil {
		t.Fatalf("merge: %v", err)
	}
	if a.Func("h") == nil {
		t.Error("merged function missing")
	}
	dup := MustParse(".func f\nret\n.endfunc")
	if err := a.Merge(dup); err == nil {
		t.Error("merge with duplicate function succeeded")
	}
	dupG := MustParse(".global g 8")
	if err := a.Merge(dupG); err == nil {
		t.Error("merge with duplicate global succeeded")
	}
}

func TestLinkLayout(t *testing.T) {
	u := MustParse(sampleSrc)
	img, err := Link(u, LinkOptions{TextBase: 0x10000, DataBase: 0x80000})
	if err != nil {
		t.Fatalf("link: %v", err)
	}
	entry, ok := img.Symbols.Lookup("entry")
	if !ok || entry.Kind != SymFunc {
		t.Fatal("entry symbol missing")
	}
	// Functions laid out in order, contiguous.
	helper, _ := img.Symbols.Lookup("helper")
	leaf, _ := img.Symbols.Lookup("leaf")
	if helper.Addr != 0x10000 {
		t.Errorf("first func at %#x, want 0x10000", helper.Addr)
	}
	if leaf.Addr != helper.Addr+helper.Size {
		t.Error("functions not contiguous")
	}
	// Globals aligned to 8.
	counter, _ := img.Symbols.Lookup("counter")
	magic, _ := img.Symbols.Lookup("magic")
	if counter.Addr%8 != 0 || magic.Addr%8 != 0 {
		t.Error("globals not aligned")
	}
	// Initialized data present.
	off := magic.Addr - img.DataBase
	if img.Data[off] != 0xde || img.Data[off+3] != 0xef {
		t.Error("data init bytes wrong")
	}
	// Whole text disassembles.
	if _, err := Disassemble(img.Text, img.TextBase); err != nil {
		t.Errorf("disassemble: %v", err)
	}
	// FuncBytes matches symbol size.
	fb, err := img.FuncBytes("entry")
	if err != nil || uint64(len(fb)) != entry.Size {
		t.Errorf("FuncBytes: %d bytes, want %d (%v)", len(fb), entry.Size, err)
	}
	if _, err := img.FuncBytes("counter"); err == nil {
		t.Error("FuncBytes on object symbol succeeded")
	}
}

func TestLinkBranchResolution(t *testing.T) {
	u := MustParse(`
.func a
    jmp .end
    trap 1
.end:
    ret
.endfunc
.func b
    call a
    ret
.endfunc
`)
	img, err := Link(u, LinkOptions{TextBase: 0x1000})
	if err != nil {
		t.Fatalf("link: %v", err)
	}
	dec, err := Disassemble(img.Text, img.TextBase)
	if err != nil {
		t.Fatal(err)
	}
	a, _ := img.Symbols.Lookup("a")
	// First instruction of a: jmp over the trap to the ret.
	tgt, ok := dec[0].BranchTarget()
	if !ok {
		t.Fatal("first inst not a branch")
	}
	if sym, _ := img.Symbols.At(tgt); sym.Name != "a" {
		t.Errorf("jmp target %#x not inside a", tgt)
	}
	// b's call resolves to a's entry.
	var callTgt uint64
	for _, d := range dec {
		if d.Inst.Op == OpCall {
			callTgt, _ = d.BranchTarget()
		}
	}
	if callTgt != a.Addr {
		t.Errorf("call target %#x, want %#x", callTgt, a.Addr)
	}
}

func TestLinkUndefinedSymbols(t *testing.T) {
	cases := []string{
		".func a\ncall nosuch\nret\n.endfunc",
		".func a\njmp .nolabel\nret\n.endfunc",
		".func a\nmovi r1, @nosuch\nret\n.endfunc",
		".func a\nloadg r1, nosuch\nret\n.endfunc",
		".func a\nstoreg nosuch, r1\nret\n.endfunc",
	}
	for _, src := range cases {
		u := MustParse(src)
		if _, err := Link(u, LinkOptions{}); err == nil {
			t.Errorf("link succeeded for %q", src)
		}
	}
}

func TestLinkDuplicateLabel(t *testing.T) {
	u := MustParse(".func a\n.l:\nnop\n.l:\nret\n.endfunc")
	if _, err := Link(u, LinkOptions{}); err == nil {
		t.Error("duplicate label accepted")
	}
}

func TestFtracePrologue(t *testing.T) {
	u := MustParse(sampleSrc)
	img, err := Link(u, LinkOptions{TextBase: 0x10000, DataBase: 0x80000, Ftrace: true})
	if err != nil {
		t.Fatalf("link: %v", err)
	}
	fentry, ok := img.Symbols.Lookup("__fentry__")
	if !ok {
		t.Fatal("__fentry__ not auto-defined")
	}
	entry, _ := img.Symbols.Lookup("entry")
	if !entry.Traced {
		t.Error("entry not marked traced")
	}
	eb, _ := img.FuncBytes("entry")
	if !HasFtracePrologue(eb, entry.Addr, fentry.Addr) {
		t.Error("entry lacks ftrace prologue signature")
	}
	// notrace function must not have it.
	leaf, _ := img.Symbols.Lookup("leaf")
	if leaf.Traced {
		t.Error("notrace leaf marked traced")
	}
	lb, _ := img.FuncBytes("leaf")
	if HasFtracePrologue(lb, leaf.Addr, fentry.Addr) {
		t.Error("leaf has unexpected prologue")
	}
	// A call rel32 that is NOT to __fentry__ must not match.
	if HasFtracePrologue(eb, entry.Addr, fentry.Addr+1) {
		t.Error("prologue signature matched wrong fentry addr")
	}
}

func TestInlineExpansion(t *testing.T) {
	u := MustParse(`
.func inc inline
    addi r0, 1
    ret
.endfunc
.func twice inline
    call inc
    call inc
    ret
.endfunc
.func top
    movi r0, 0
    call twice
    ret
.endfunc
`)
	noInline, err := Link(u, LinkOptions{TextBase: 0x1000})
	if err != nil {
		t.Fatal(err)
	}
	inlined, err := Link(u, LinkOptions{TextBase: 0x1000, Inline: true})
	if err != nil {
		t.Fatal(err)
	}
	// With inlining, top must contain no calls at all.
	tb, _ := inlined.FuncBytes("top")
	dec, err := Disassemble(tb, 0)
	if err != nil {
		t.Fatal(err)
	}
	for _, d := range dec {
		if d.Inst.Op == OpCall {
			t.Error("call survived inline expansion")
		}
	}
	// And top must be bigger than the non-inlined version.
	a, _ := noInline.Symbols.Lookup("top")
	b, _ := inlined.Symbols.Lookup("top")
	if b.Size <= a.Size {
		t.Errorf("inlined top size %d <= plain %d", b.Size, a.Size)
	}
}

func TestInlineLabelRenaming(t *testing.T) {
	u := MustParse(`
.func pick inline
    cmpi r1, 0
    jz .no
    movi r0, 1
    jmp .done
.no:
    movi r0, 2
.done:
    ret
.endfunc
.func top
    call pick
    call pick
    ret
.endfunc
`)
	// Two expansions of the same labeled body: labels must stay unique.
	if _, err := Link(u, LinkOptions{Inline: true}); err != nil {
		t.Fatalf("link with repeated inline: %v", err)
	}
}

func TestInlineCycleRejected(t *testing.T) {
	u := MustParse(`
.func a inline
    call b
    ret
.endfunc
.func b inline
    call a
    ret
.endfunc
.func top
    call a
    ret
.endfunc
`)
	if _, err := Link(u, LinkOptions{Inline: true}); err == nil {
		t.Error("inline cycle accepted")
	}
}

func TestInlineRequiresTrailingRet(t *testing.T) {
	u := MustParse(`
.func bad inline
    ret
    nop
.endfunc
.func top
    call bad
    ret
.endfunc
`)
	if _, err := Link(u, LinkOptions{Inline: true}); err == nil {
		t.Error("inline function without trailing ret accepted")
	}
	u2 := MustParse(`
.func bad inline
    cmpi r1, 0
    jz .x
    ret
.x:
    ret
.endfunc
.func top
    call bad
    ret
.endfunc
`)
	if _, err := Link(u2, LinkOptions{Inline: true}); err == nil {
		t.Error("inline function with multiple rets accepted")
	}
}

func TestSymTab(t *testing.T) {
	tab, err := NewSymTab([]Symbol{
		{Name: "b", Kind: SymFunc, Addr: 0x2000, Size: 16},
		{Name: "a", Kind: SymFunc, Addr: 0x1000, Size: 32},
		{Name: "g", Kind: SymObject, Addr: 0x8000, Size: 8},
	})
	if err != nil {
		t.Fatal(err)
	}
	if s, ok := tab.At(0x101f); !ok || s.Name != "a" {
		t.Errorf("At(0x101f) = %v, %v", s, ok)
	}
	if _, ok := tab.At(0x1020); ok {
		t.Error("At past end of symbol matched")
	}
	if _, ok := tab.At(0x500); ok {
		t.Error("At before first symbol matched")
	}
	if fs := tab.Funcs(); len(fs) != 2 || fs[0].Name != "a" {
		t.Errorf("Funcs() = %v", fs)
	}
	if len(tab.All()) != 3 {
		t.Error("All() wrong length")
	}
	if _, err := NewSymTab([]Symbol{{Name: "x"}, {Name: "x"}}); err == nil {
		t.Error("duplicate symbol accepted")
	}
}

// HasFtracePrologue reports whether the function bytes begin with a
// `call rel32` whose target is fentryAddr: the 5-byte trace signature
// the paper's prototype identifies in the binary (§V-A).
func HasFtracePrologue(code []byte, funcAddr, fentryAddr uint64) bool {
	if len(code) < FtracePrologueLen || Op(code[0]) != OpCall {
		return false
	}
	inst, n, err := Decode(code)
	if err != nil || n != FtracePrologueLen {
		return false
	}
	return uint64(int64(funcAddr)+int64(n)+inst.Imm) == fentryAddr
}
