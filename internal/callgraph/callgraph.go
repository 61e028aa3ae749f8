// Package callgraph builds and compares source-level and binary-level
// call graphs of the simulated kernel, reproducing the analysis KShot
// performs with codeviz (source) and IDA Pro (binary) in §V-A.
//
// The difference between the two graphs reveals compiler inlining: an
// edge F→g present in source but absent from the binary (with g
// emitting no standalone symbol, or the call folded away) means g's
// body was spliced into F. Because inlining is transitive, the package
// implements the paper's worklist algorithm: starting from the
// source-changed functions, it iteratively adds callers that inlined
// an implicated function until a fixed point, yielding the set of
// binary functions that must actually be patched.
package callgraph

import (
	"fmt"
	"sort"

	"kshot/internal/isa"
)

// Graph is a directed call graph over function names.
type Graph struct {
	callees map[string][]string
	callers map[string][]string
	nodes   map[string]bool
}

func newGraph() *Graph {
	return &Graph{
		callees: make(map[string][]string),
		callers: make(map[string][]string),
		nodes:   make(map[string]bool),
	}
}

func (g *Graph) addNode(n string) {
	g.nodes[n] = true
}

func (g *Graph) addEdge(from, to string) {
	g.addNode(from)
	g.addNode(to)
	if !contains(g.callees[from], to) {
		g.callees[from] = append(g.callees[from], to)
	}
	if !contains(g.callers[to], from) {
		g.callers[to] = append(g.callers[to], from)
	}
}

func contains(xs []string, s string) bool {
	for _, x := range xs {
		if x == s {
			return true
		}
	}
	return false
}

// Has reports whether the function appears in the graph.
func (g *Graph) Has(fn string) bool { return g.nodes[fn] }

// HasEdge reports whether from calls to.
func (g *Graph) HasEdge(from, to string) bool { return contains(g.callees[from], to) }

// Callers returns the functions that call fn.
func (g *Graph) Callers(fn string) []string {
	return append([]string(nil), g.callers[fn]...)
}

// FromSource builds the source-level call graph of a translation unit
// (the codeviz analogue): every function is a node, every `call sym`
// in its body an edge.
func FromSource(u *isa.Unit) *Graph {
	g := newGraph()
	for _, f := range u.Funcs {
		g.addNode(f.Name)
		for _, callee := range f.CallTargets() {
			g.addEdge(f.Name, callee)
		}
	}
	return g
}

// FromBinary builds the binary-level call graph of a linked image (the
// IDA analogue): each function symbol is disassembled and its call
// rel32 targets are resolved through the symbol table. The ftrace
// prologue's __fentry__ edge is excluded — it is tracing machinery,
// not a semantic call.
func FromBinary(img *isa.Image) (*Graph, error) {
	g := newGraph()
	for _, sym := range img.Symbols.Funcs() {
		if sym.Name == "__fentry__" {
			continue
		}
		g.addNode(sym.Name)
		code, err := img.FuncBytes(sym.Name)
		if err != nil {
			return nil, fmt.Errorf("callgraph: %w", err)
		}
		decoded, err := isa.Disassemble(code, sym.Addr)
		if err != nil {
			return nil, fmt.Errorf("callgraph %s: %w", sym.Name, err)
		}
		for _, d := range decoded {
			if d.Inst.Op != isa.OpCall {
				continue
			}
			tgt, _ := d.BranchTarget()
			callee, ok := img.Symbols.At(tgt)
			if !ok {
				return nil, fmt.Errorf("callgraph %s: call at %#x targets unmapped %#x", sym.Name, d.Addr, tgt)
			}
			if callee.Name == "__fentry__" {
				continue
			}
			g.addEdge(sym.Name, callee.Name)
		}
	}
	return g, nil
}

// Implicated runs the paper's worklist algorithm: given the names of
// source-changed functions, it returns the set of binary functions
// that must be patched, closed over transitive inlining. The result is
// sorted; every returned name exists in the binary graph.
func Implicated(changed []string, src, bin *Graph) []string {
	implicated := make(map[string]bool)
	seen := make(map[string]bool)
	work := append([]string(nil), changed...)

	for len(work) > 0 {
		fn := work[0]
		work = work[1:]
		if seen[fn] {
			continue
		}
		seen[fn] = true

		if bin.Has(fn) {
			implicated[fn] = true
		}
		// A caller embeds fn's changed body when the compiler folded
		// the call: either fn emits no standalone symbol at all (so
		// every call site was expanded), or the caller exists in the
		// binary but its call edge to fn vanished (partial inlining).
		// A surviving call instruction, by contrast, will reach the
		// patched standalone copy through its trampoline, so it does
		// not implicate the caller.
		for _, caller := range src.Callers(fn) {
			folded := !bin.Has(fn) || (bin.Has(caller) && !bin.HasEdge(caller, fn))
			if folded && !seen[caller] {
				work = append(work, caller)
			}
		}
	}

	out := make([]string, 0, len(implicated))
	for fn := range implicated {
		out = append(out, fn)
	}
	sort.Strings(out)
	return out
}
