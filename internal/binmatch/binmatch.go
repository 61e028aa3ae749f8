// Package binmatch aligns and compares two kernel binary images the
// way KShot's prototype uses iBinHunt and FIBER (§V-A): functions are
// decomposed into basic blocks, lifted to a position-independent
// normal form (register operands verbatim; branch targets rewritten to
// in-function instruction indices; call/data targets rewritten to
// symbol-relative form), and compared by normalized fingerprint. This
// makes the comparison immune to the wholesale address shifts a
// rebuild causes — only genuine semantic changes register as diffs.
package binmatch

import (
	"crypto/sha256"
	"fmt"
	"sort"
	"strings"

	"kshot/internal/isa"
)

// Normalize lifts a function's code to its position-independent form,
// one instruction per line.
func Normalize(img *isa.Image, name string) (string, error) {
	sym, ok := img.Symbols.Lookup(name)
	if !ok || sym.Kind != isa.SymFunc {
		return "", fmt.Errorf("binmatch: no function %q", name)
	}
	code, err := img.FuncBytes(name)
	if err != nil {
		return "", err
	}
	decoded, err := isa.Disassemble(code, sym.Addr)
	if err != nil {
		return "", fmt.Errorf("binmatch %s: %w", name, err)
	}
	idxOf := make(map[uint64]int, len(decoded))
	for i, d := range decoded {
		idxOf[d.Addr] = i
	}

	var b strings.Builder
	for _, d := range decoded {
		switch {
		case d.Inst.Op.IsBranch():
			tgt, _ := d.BranchTarget()
			if idx, in := idxOf[tgt]; in {
				fmt.Fprintf(&b, "%s @%d\n", d.Inst.Op.Mnemonic(), idx)
				continue
			}
			if s, ok := img.Symbols.At(tgt); ok {
				fmt.Fprintf(&b, "%s %s+%d\n", d.Inst.Op.Mnemonic(), s.Name, tgt-s.Addr)
				continue
			}
			fmt.Fprintf(&b, "%s ?%#x\n", d.Inst.Op.Mnemonic(), tgt)
		case d.Inst.Op == isa.OpMovi || d.Inst.Op == isa.OpLoadg || d.Inst.Op == isa.OpStrg:
			if s, ok := img.Symbols.At(uint64(d.Inst.Imm)); ok {
				fmt.Fprintf(&b, "%s r%d,r%d %s+%d\n", d.Inst.Op.Mnemonic(), d.Inst.Dst, d.Inst.Src,
					s.Name, uint64(d.Inst.Imm)-s.Addr)
				continue
			}
			fmt.Fprintf(&b, "%s r%d,r%d #%d\n", d.Inst.Op.Mnemonic(), d.Inst.Dst, d.Inst.Src, d.Inst.Imm)
		default:
			fmt.Fprintf(&b, "%s\n", d.Inst.String())
		}
	}
	return b.String(), nil
}

// Fingerprint returns the SHA-256 of the function's normalized form.
func Fingerprint(img *isa.Image, name string) ([sha256.Size]byte, error) {
	n, err := Normalize(img, name)
	if err != nil {
		return [sha256.Size]byte{}, err
	}
	return sha256.Sum256([]byte(n)), nil
}

// Diff summarizes the function-level differences between two images.
type Diff struct {
	Changed []string // present in both with different normalized bodies
	Added   []string // only in post
	Removed []string // only in pre
}

// DiffImages compares all function symbols of two images by normalized
// fingerprint.
func DiffImages(pre, post *isa.Image) (Diff, error) {
	var d Diff
	preFuncs := make(map[string]bool)
	for _, s := range pre.Symbols.Funcs() {
		preFuncs[s.Name] = true
	}
	for _, s := range post.Symbols.Funcs() {
		if !preFuncs[s.Name] {
			d.Added = append(d.Added, s.Name)
			continue
		}
		fp1, err := Fingerprint(pre, s.Name)
		if err != nil {
			return Diff{}, err
		}
		fp2, err := Fingerprint(post, s.Name)
		if err != nil {
			return Diff{}, err
		}
		if fp1 != fp2 {
			d.Changed = append(d.Changed, s.Name)
		}
	}
	postFuncs := make(map[string]bool)
	for _, s := range post.Symbols.Funcs() {
		postFuncs[s.Name] = true
	}
	for name := range preFuncs {
		if !postFuncs[name] {
			d.Removed = append(d.Removed, name)
		}
	}
	sort.Strings(d.Changed)
	sort.Strings(d.Added)
	sort.Strings(d.Removed)
	return d, nil
}
