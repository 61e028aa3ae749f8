package evalharness

import (
	"context"
	"fmt"
	"sort"
	"strings"
	"sync"

	"kshot/internal/core"
	"kshot/internal/corpusgen"
	"kshot/internal/cvebench"
	"kshot/internal/isa"
	"kshot/internal/kcrypto"
	"kshot/internal/kernel"
	"kshot/internal/mem"
	"kshot/internal/patch"
	"kshot/internal/patchserver"
	"kshot/internal/report"
)

// Divergence is one disagreement between the corpus generator's
// prediction and what the live pipeline actually did. Every divergence
// is seed-reproducible: regenerating the named seed rebuilds the exact
// case, so the report IS the minimized reproducer.
type Divergence struct {
	// Seed regenerates the case (corpusgen.GenCase(Seed)).
	Seed uint64

	// ID and Archetype identify the case in sweep output.
	ID        string
	Archetype string

	// Stage names the pipeline stage that diverged (build-pre,
	// patch-build, funcs, type, traced, new-globals, prepare,
	// trampoline, e2e-*...).
	Stage string

	// Detail says what was predicted and what the pipeline produced.
	Detail string
}

func (d Divergence) String() string {
	return fmt.Sprintf("%s seed=%#016x arch=%s stage=%s: %s (reproduce: kshot-corpus shrink -seed %#x)",
		d.ID, d.Seed, d.Archetype, d.Stage, d.Detail, d.Seed)
}

// CaseResult is the differential verdict for one generated case.
type CaseResult struct {
	Case        *corpusgen.Case
	Divergences []Divergence

	// Checked/Matched count per-function prediction checks by expected
	// Type, feeding the sweep's classification-accuracy table.
	Checked map[patch.Type]int
	Matched map[patch.Type]int
}

func (r *CaseResult) diverge(stage, format string, a ...any) {
	r.Divergences = append(r.Divergences, Divergence{
		Seed: r.Case.Seed, ID: r.Case.ID, Archetype: r.Case.Archetype,
		Stage: stage, Detail: fmt.Sprintf(format, a...),
	})
}

// corpusPlacement is the synthetic reserved-memory layout the analysis
// stage prepares against (the e2e stage uses the live handler's real
// placement instead).
var corpusPlacement = patch.Placement{
	MemXBase: 0x0600_0000, MemXSize: 1 << 20,
	DataAllocBase: 0x0700_0000, DataAllocSize: 1 << 20,
}

// VerifyCase differentially verifies one generated case against the
// real pipeline. The analysis stage builds the vulnerable and fixed
// kernels under the case's exact configuration, runs the server-side
// patch build (source diff + call-graph inlining analysis + binary
// matching), and checks every generator prediction: the patched
// function set, each function's Type 1/2/3 classification, its ftrace
// prologue, the new globals, and — after preprocessing — the
// trampoline site math (entry vs entry+5, jmp displacement into
// mem_X). With e2e set it additionally boots a kshot.System with the
// case's config, confirms the exploit fires, applies the patch through
// the full SGX+SMM path, re-checks the live trampoline bytes, confirms
// the exploit is dead, rolls back, and requires the post-rollback
// kernel.text frame-diff to be empty and the exploit to fire again.
func VerifyCase(c *corpusgen.Case, e2e bool) *CaseResult {
	res := &CaseResult{
		Case:    c,
		Checked: make(map[patch.Type]int),
		Matched: make(map[patch.Type]int),
	}

	cfg := kernel.BuildConfig{Version: c.Version, Ftrace: c.Ftrace, Inline: c.Inline}
	build := func(src string, stage string) (patch.ImagePair, bool) {
		st, err := kernel.BaseTreeWithConfig(cfg)
		if err != nil {
			res.diverge(stage, "base tree: %v", err)
			return patch.ImagePair{}, false
		}
		st.AddFile(c.File, src)
		img, unit, err := st.Build()
		if err != nil {
			res.diverge(stage, "build: %v", err)
			return patch.ImagePair{}, false
		}
		return patch.ImagePair{Img: img, Unit: unit}, true
	}
	pre, ok := build(c.Vuln, "build-pre")
	if !ok {
		return res
	}
	post, ok := build(c.Fixed, "build-post")
	if !ok {
		return res
	}

	bp, err := patch.Build(c.ID, c.Version, pre, post)
	if err != nil {
		res.diverge("patch-build", "%v", err)
		return res
	}

	// Patched-function set.
	got := make(map[string]patch.FuncPatch, len(bp.Funcs))
	for _, f := range bp.Funcs {
		got[f.Name] = f
	}
	for _, name := range c.Expect.FuncNames() {
		if _, ok := got[name]; !ok {
			res.diverge("funcs", "predicted patch to %s, pipeline did not produce one", name)
		}
	}
	for name := range got {
		if _, ok := c.Expect.Funcs[name]; !ok {
			res.diverge("funcs", "pipeline patched %s, generator predicted no patch", name)
		}
	}

	// Per-function classification, newness, and ftrace prologue.
	for name, want := range c.Expect.Funcs {
		fp, ok := got[name]
		if !ok {
			continue // already reported under funcs
		}
		res.Checked[want.Type]++
		if fp.Type == want.Type {
			res.Matched[want.Type]++
		} else {
			res.diverge("type", "%s: predicted Type %s, pipeline classified Type %s", name, want.Type, fp.Type)
		}
		if fp.New != want.New {
			res.diverge("new", "%s: predicted new=%v, pipeline says new=%v", name, want.New, fp.New)
		}
		if fp.Traced != want.Traced {
			res.diverge("traced", "%s: predicted traced=%v, pipeline says traced=%v", name, want.Traced, fp.Traced)
		}
	}

	// Distinct types (the Table I column).
	if got, want := typesKey(bp.Types()), typesKey(c.Expect.Types); got != want {
		res.diverge("types", "predicted types {%s}, pipeline produced {%s}", want, got)
	}

	// New globals.
	var newGlobals []string
	for _, g := range bp.Globals {
		if g.New {
			newGlobals = append(newGlobals, g.Name)
		}
	}
	sort.Strings(newGlobals)
	if got, want := strings.Join(newGlobals, ","), strings.Join(c.Expect.NewGlobals, ","); got != want {
		res.diverge("new-globals", "predicted new globals [%s], pipeline produced [%s]", want, got)
	}

	// Trampoline site math, against the pre image's symbol table.
	pp, err := patch.Prepare(bp, pre.Img.Symbols, corpusPlacement, 0, 0)
	if err != nil {
		res.diverge("prepare", "%v", err)
		return res
	}
	for _, pf := range pp.Funcs {
		want, ok := c.Expect.Funcs[pf.Name]
		if !ok {
			continue
		}
		if want.New {
			if pf.TAddr != 0 || pf.TrampolineBytes != nil {
				res.diverge("trampoline", "%s: new function must get no trampoline (TAddr=%#x)", pf.Name, pf.TAddr)
			}
			continue
		}
		sym, ok := pre.Img.Symbols.Lookup(pf.Name)
		if !ok {
			res.diverge("trampoline", "%s: not in pre-image symbol table", pf.Name)
			continue
		}
		skip := uint64(0)
		if want.Traced {
			skip = isa.FtracePrologueLen
		}
		if pf.TAddr != sym.Addr || pf.TSize != sym.Size {
			res.diverge("trampoline", "%s: TAddr/TSize %#x/%d, want %#x/%d", pf.Name, pf.TAddr, pf.TSize, sym.Addr, sym.Size)
		}
		if pf.TrampolineAt != sym.Addr+skip {
			res.diverge("trampoline", "%s: trampoline at %#x, predicted entry+%d = %#x", pf.Name, pf.TrampolineAt, skip, sym.Addr+skip)
		}
		ds, err := isa.Disassemble(pf.TrampolineBytes, pf.TrampolineAt)
		if err != nil || len(ds) != 1 || ds[0].Inst.Op != isa.OpJmp {
			res.diverge("trampoline", "%s: trampoline bytes are not a single jmp (%v)", pf.Name, err)
			continue
		}
		if tgt, _ := ds[0].BranchTarget(); tgt != pf.PAddr {
			res.diverge("trampoline", "%s: trampoline jumps to %#x, payload placed at %#x", pf.Name, tgt, pf.PAddr)
		}
	}

	if e2e && len(res.Divergences) == 0 {
		verifyCaseE2E(c, res)
	}
	return res
}

// verifyCaseE2E drives the case through a live deployment: boot with
// the case's config, exploit, apply, inspect the live trampolines,
// re-exploit, roll back, frame-diff kernel.text, re-exploit.
func verifyCaseE2E(c *corpusgen.Case, res *CaseResult) {
	entry := c.Entry()
	srv, err := patchserver.New(patchserver.WithTreeProvider(cvebench.TreeProviderFor(entry)))
	if err != nil {
		res.diverge("e2e-setup", "patch server: %v", err)
		return
	}
	defer srv.Close()
	srv.RegisterPatch(entry.SourcePatch())

	sys, err := core.NewSystem(core.Options{
		Version:       c.Version,
		NumVCPUs:      1,
		ExtraFiles:    map[string]string{c.File: c.Vuln},
		ServerAddr:    srv.Addr(),
		HashAlg:       kcrypto.HashSHA256,
		DisableFtrace: !c.Ftrace,
		DisableInline: !c.Inline,
	})
	if err != nil {
		res.diverge("e2e-setup", "boot: %v", err)
		return
	}
	defer sys.Close()

	snap := sys.Machine.Mem.Snapshot()
	probe := func(stage string, wantVulnerable bool) bool {
		r, err := entry.Exploit(sys.Kernel, 0)
		if err != nil {
			res.diverge(stage, "exploit probe: %v", err)
			return false
		}
		if r.Vulnerable != wantVulnerable {
			res.diverge(stage, "exploit vulnerable=%v, want %v (%s)", r.Vulnerable, wantVulnerable, r.Detail)
			return false
		}
		return true
	}

	if !probe("e2e-pre-exploit", true) {
		return
	}
	if _, err := sys.Apply(context.Background(), c.ID); err != nil {
		res.diverge("e2e-apply", "%v", err)
		return
	}

	// Live trampoline bytes: every non-new patched function must now
	// begin (past its prologue) with a jmp into the handler's mem_X.
	place := sys.Handler.Placement()
	for name, want := range c.Expect.Funcs {
		if want.New {
			continue
		}
		addr, err := sys.Kernel.FuncAddr(name)
		if err != nil {
			res.diverge("e2e-trampoline", "%s: %v", name, err)
			continue
		}
		b, err := sys.Kernel.FuncBytes(name)
		if err != nil {
			res.diverge("e2e-trampoline", "%s: %v", name, err)
			continue
		}
		skip := 0
		if want.Traced {
			skip = isa.FtracePrologueLen
		}
		if len(b) < skip+isa.FtracePrologueLen {
			res.diverge("e2e-trampoline", "%s: live function too small (%d bytes) for a trampoline at +%d", name, len(b), skip)
			continue
		}
		ds, err := isa.Disassemble(b[skip:skip+isa.FtracePrologueLen], addr+uint64(skip))
		if err != nil || len(ds) != 1 || ds[0].Inst.Op != isa.OpJmp {
			res.diverge("e2e-trampoline", "%s: live bytes at entry+%d are not a jmp (%v)", name, skip, err)
			continue
		}
		tgt, _ := ds[0].BranchTarget()
		if tgt < place.MemXBase || tgt >= place.MemXBase+place.MemXSize {
			res.diverge("e2e-trampoline", "%s: live trampoline targets %#x, outside mem_X [%#x,%#x)",
				name, tgt, place.MemXBase, place.MemXBase+place.MemXSize)
		}
	}

	if !probe("e2e-post-exploit", false) {
		return
	}
	if _, err := sys.Rollback(context.Background(), c.ID); err != nil {
		res.diverge("e2e-rollback", "%v", err)
		return
	}

	// Post-rollback kernel.text must be frame-identical to boot: the
	// exploit and the patch touched data and reserved memory, but every
	// text byte the apply wrote must be back.
	text := sys.Machine.Mem.Region(kernel.RegionText)
	dirty, err := sys.Machine.Mem.DiffFramesIn(snap, text.Base, text.Size)
	if err != nil {
		res.diverge("e2e-framediff", "%v", err)
		return
	}
	if len(dirty) > 0 {
		res.diverge("e2e-framediff", "%d kernel.text frames differ from boot after rollback (first at %#x)",
			len(dirty), mem.FrameAddr(dirty[0]))
		return
	}
	probe("e2e-revert-exploit", true)
}

// SweepOptions parameterizes RunCorpusSweep.
type SweepOptions struct {
	// Seed is the corpus master seed; Count the number of cases.
	Seed  uint64
	Count int

	// E2ECount drives the first N cases through a live system on top
	// of the analysis-level verification every case gets. Negative
	// means all of them.
	E2ECount int

	// Workers bounds verification concurrency (min 1).
	Workers int
}

// SweepStats aggregates a corpus sweep.
type SweepStats struct {
	Seed        uint64
	Cases       int
	E2ECases    int
	ByArchetype map[string]int
	ByTypes     map[string]int
	Checked     map[patch.Type]int
	Matched     map[patch.Type]int
	Divergences []Divergence
}

// RunCorpusSweep generates the corpus and differentially verifies
// every case. The returned stats (and the divergence order) are
// deterministic for a given options value regardless of Workers.
func RunCorpusSweep(opts SweepOptions) *SweepStats {
	cases := corpusgen.Generate(corpusgen.Config{Seed: opts.Seed, Count: opts.Count})
	e2eN := opts.E2ECount
	if e2eN < 0 || e2eN > len(cases) {
		e2eN = len(cases)
	}
	workers := opts.Workers
	if workers < 1 {
		workers = 1
	}

	results := make([]*CaseResult, len(cases))
	var wg sync.WaitGroup
	sem := make(chan struct{}, workers)
	for i, c := range cases {
		wg.Add(1)
		go func(i int, c *corpusgen.Case) {
			defer wg.Done()
			sem <- struct{}{}
			defer func() { <-sem }()
			results[i] = VerifyCase(c, i < e2eN)
		}(i, c)
	}
	wg.Wait()

	stats := &SweepStats{
		Seed: opts.Seed, Cases: len(cases), E2ECases: e2eN,
		ByArchetype: make(map[string]int), ByTypes: make(map[string]int),
		Checked: make(map[patch.Type]int), Matched: make(map[patch.Type]int),
	}
	for _, r := range results {
		stats.ByArchetype[r.Case.Archetype]++
		stats.ByTypes[r.Case.Expect.TypesString()]++
		for t, n := range r.Checked {
			stats.Checked[t] += n
		}
		for t, n := range r.Matched {
			stats.Matched[t] += n
		}
		stats.Divergences = append(stats.Divergences, r.Divergences...)
	}
	return stats
}

// CorpusTable renders a sweep for the CLI and EXPERIMENTS.md.
func CorpusTable(s *SweepStats) *report.Table {
	t := report.NewTable(
		fmt.Sprintf("Generated-corpus differential sweep (seed %#x)", s.Seed),
		"Metric", "Value")
	t.AddRow("cases", fmt.Sprintf("%d", s.Cases))
	t.AddRow("end-to-end cases", fmt.Sprintf("%d", s.E2ECases))
	t.AddRow("divergences", fmt.Sprintf("%d", len(s.Divergences)))
	for _, ty := range []patch.Type{patch.Type1, patch.Type2, patch.Type3} {
		if s.Checked[ty] == 0 {
			continue
		}
		t.AddRow(fmt.Sprintf("Type %s classification", ty),
			fmt.Sprintf("%d/%d (%.1f%%)", s.Matched[ty], s.Checked[ty],
				100*float64(s.Matched[ty])/float64(s.Checked[ty])))
	}
	var archs []string
	for a := range s.ByArchetype {
		archs = append(archs, a)
	}
	sort.Strings(archs)
	for _, a := range archs {
		t.AddRow("archetype "+a, fmt.Sprintf("%d", s.ByArchetype[a]))
	}
	t.AddNote("every divergence is reproducible from its seed alone: kshot-corpus shrink -seed <seed>")
	return t
}

func typesKey(ts []patch.Type) string {
	parts := make([]string, len(ts))
	for i, t := range ts {
		parts[i] = t.String()
	}
	return strings.Join(parts, ",")
}
