package binmatch

import (
	"fmt"
	"reflect"
	"sort"
	"strings"
	"testing"

	"kshot/internal/isa"
)

const preSrc = `
.global counter 8
.func alpha
    movi r1, 5
    cmpi r1, 0
    jz .end
    call beta
.end:
    ret
.endfunc
.func beta
    loadg r0, counter
    addi r0, 1
    storeg counter, r0
    ret
.endfunc
.func gamma
    movi r0, 42
    ret
.endfunc
.func doomed
    ret
.endfunc
.func epsilon
    cmpi r1, 0
    jz .b
    movi r0, 1
    ret
.b:
    movi r0, 2
    ret
.endfunc
`

// postSrc: beta changed (adds bounds clamp), doomed removed, delta
// added; alpha and gamma semantically identical but at new addresses.
const postSrc = `
.global counter 8
.func alpha
    movi r1, 5
    cmpi r1, 0
    jz .end
    call beta
.end:
    ret
.endfunc
.func beta
    loadg r0, counter
    addi r0, 1
    cmpi r0, 1000
    jle .store
    movi r0, 0
.store:
    storeg counter, r0
    ret
.endfunc
.func gamma
    movi r0, 42
    ret
.endfunc
.func delta
    movi r0, 7
    ret
.endfunc
.func epsilon
    cmpi r1, 0
    jz .b
    movi r0, 1
    ret
.b:
    movi r0, 3
    ret
.endfunc
`

func link(t *testing.T, src string, textBase uint64) *isa.Image {
	t.Helper()
	img, err := isa.Link(isa.MustParse(src), isa.LinkOptions{
		TextBase: textBase, DataBase: textBase + 0x10000, Ftrace: true,
	})
	if err != nil {
		t.Fatal(err)
	}
	return img
}

func TestDiffImages(t *testing.T) {
	pre := link(t, preSrc, 0x10000)
	// Post built at a different base: every address shifts, only real
	// changes must be reported.
	post := link(t, postSrc, 0x90000)
	d, err := DiffImages(pre, post)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(d.Changed, []string{"beta", "epsilon"}) {
		t.Errorf("changed = %v, want [beta epsilon]", d.Changed)
	}
	if !reflect.DeepEqual(d.Added, []string{"delta"}) {
		t.Errorf("added = %v", d.Added)
	}
	if !reflect.DeepEqual(d.Removed, []string{"doomed"}) {
		t.Errorf("removed = %v", d.Removed)
	}
}

func TestNormalizePositionIndependent(t *testing.T) {
	a := link(t, preSrc, 0x10000)
	b := link(t, preSrc, 0x500000)
	for _, fn := range []string{"alpha", "beta", "gamma"} {
		na, err := Normalize(a, fn)
		if err != nil {
			t.Fatal(err)
		}
		nb, err := Normalize(b, fn)
		if err != nil {
			t.Fatal(err)
		}
		if na != nb {
			t.Errorf("%s normal form depends on load address:\n%s\nvs\n%s", fn, na, nb)
		}
	}
}

func TestNormalizeResolvesSymbols(t *testing.T) {
	img := link(t, preSrc, 0x10000)
	n, err := Normalize(img, "beta")
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(n, "counter+0") {
		t.Errorf("global reference not symbolized:\n%s", n)
	}
	n, err = Normalize(img, "alpha")
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(n, "beta+0") {
		t.Errorf("call target not symbolized:\n%s", n)
	}
	if !strings.Contains(n, "jz @") {
		t.Errorf("internal branch not index-normalized:\n%s", n)
	}
	if _, err := Normalize(img, "counter"); err == nil {
		t.Error("normalize of data symbol succeeded")
	}
}

func TestBlocksDecomposition(t *testing.T) {
	img := link(t, preSrc, 0x10000)
	blocks, err := Blocks(img, "alpha")
	if err != nil {
		t.Fatal(err)
	}
	// alpha (with ftrace prologue): entry block ends at jz; then the
	// call block; then the .end block. Expect >= 3 blocks.
	if len(blocks) < 3 {
		t.Errorf("alpha blocks = %d, want >= 3", len(blocks))
	}
	if blocks[0].StartIdx != 0 {
		t.Error("first block does not start at 0")
	}
	for i := 1; i < len(blocks); i++ {
		if blocks[i].StartIdx <= blocks[i-1].StartIdx {
			t.Error("blocks not ordered")
		}
	}
}

func TestMatchScore(t *testing.T) {
	pre := link(t, preSrc, 0x10000)
	post := link(t, postSrc, 0x90000)
	// Unchanged function: perfect score.
	s, err := MatchScore(pre, "gamma", post, "gamma")
	if err != nil {
		t.Fatal(err)
	}
	if s != 1.0 {
		t.Errorf("gamma self-score = %v, want 1.0", s)
	}
	// Heavily changed function whose control flow was restructured:
	// every pre block was touched, so the score collapses.
	s, err = MatchScore(pre, "beta", post, "beta")
	if err != nil {
		t.Fatal(err)
	}
	if s >= 1.0 {
		t.Errorf("beta score = %v, want < 1.0", s)
	}
	// Function with one changed block out of several: partial score.
	s, err = MatchScore(pre, "epsilon", post, "epsilon")
	if err != nil {
		t.Fatal(err)
	}
	if s <= 0 || s >= 1.0 {
		t.Errorf("epsilon score = %v, want in (0,1)", s)
	}
	// Unrelated functions: low score.
	s, err = MatchScore(pre, "beta", post, "gamma")
	if err != nil {
		t.Fatal(err)
	}
	if s > 0.5 {
		t.Errorf("unrelated score = %v, want <= 0.5", s)
	}
	if _, err := MatchScore(pre, "nosuch", post, "gamma"); err == nil {
		t.Error("missing function accepted")
	}
}

func TestFingerprintDetectsSingleInstruction(t *testing.T) {
	a := link(t, ".func f\nmovi r0, 1\nret\n.endfunc", 0x1000)
	b := link(t, ".func f\nmovi r0, 2\nret\n.endfunc", 0x1000)
	fa, err := Fingerprint(a, "f")
	if err != nil {
		t.Fatal(err)
	}
	fb, err := Fingerprint(b, "f")
	if err != nil {
		t.Fatal(err)
	}
	if fa == fb {
		t.Error("one-immediate change undetected")
	}
}

// Block is one basic block of a function in normalized form.
type Block struct {
	StartIdx int    // index of the first instruction
	Norm     string // normalized instructions of the block
}

// Blocks decomposes a function into basic blocks: leaders are the
// entry, branch targets, and instructions following branches/rets.
func Blocks(img *isa.Image, name string) ([]Block, error) {
	sym, ok := img.Symbols.Lookup(name)
	if !ok || sym.Kind != isa.SymFunc {
		return nil, fmt.Errorf("binmatch: no function %q", name)
	}
	code, err := img.FuncBytes(name)
	if err != nil {
		return nil, err
	}
	decoded, err := isa.Disassemble(code, sym.Addr)
	if err != nil {
		return nil, err
	}
	norm, err := Normalize(img, name)
	if err != nil {
		return nil, err
	}
	lines := strings.Split(strings.TrimSuffix(norm, "\n"), "\n")

	idxOf := make(map[uint64]int, len(decoded))
	for i, d := range decoded {
		idxOf[d.Addr] = i
	}
	leaders := map[int]bool{0: true}
	for i, d := range decoded {
		if d.Inst.Op.IsBranch() {
			if tgt, _ := d.BranchTarget(); true {
				if idx, in := idxOf[tgt]; in {
					leaders[idx] = true
				}
			}
			if d.Inst.Op != isa.OpCall && i+1 < len(decoded) {
				leaders[i+1] = true
			}
		}
		if d.Inst.Op == isa.OpRet && i+1 < len(decoded) {
			leaders[i+1] = true
		}
	}
	starts := make([]int, 0, len(leaders))
	for i := range leaders {
		starts = append(starts, i)
	}
	sort.Ints(starts)

	var out []Block
	for bi, s := range starts {
		end := len(decoded)
		if bi+1 < len(starts) {
			end = starts[bi+1]
		}
		out = append(out, Block{
			StartIdx: s,
			Norm:     strings.Join(lines[s:end], "\n"),
		})
	}
	return out, nil
}

// MatchScore returns the fraction of pre-image blocks of preFn that
// have an identical normalized block in postFn of the post image —
// the block-level similarity the binary matching literature uses to
// align functions across versions. 1.0 means every block matched.
func MatchScore(pre *isa.Image, preFn string, post *isa.Image, postFn string) (float64, error) {
	pb, err := Blocks(pre, preFn)
	if err != nil {
		return 0, err
	}
	qb, err := Blocks(post, postFn)
	if err != nil {
		return 0, err
	}
	if len(pb) == 0 {
		return 0, fmt.Errorf("binmatch: %s has no blocks", preFn)
	}
	avail := make(map[string]int)
	for _, b := range qb {
		avail[b.Norm]++
	}
	matched := 0
	for _, b := range pb {
		if avail[b.Norm] > 0 {
			avail[b.Norm]--
			matched++
		}
	}
	return float64(matched) / float64(len(pb)), nil
}
