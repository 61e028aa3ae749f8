package main

import (
	"bytes"
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"slices"
	"strings"
	"testing"
	"time"

	"kshot/internal/evalharness"
	"kshot/internal/report"
)

var update = flag.Bool("update", false, "rewrite golden files with the current output")

// paperArtifactArgs selects every data-bearing paper artifact that runs
// in seconds: Tables I–V, Figures 4–5, RQ1 and the pipelined ApplyAll
// comparison. Table I and IV are qualitative and print nothing under
// -json; the flags stay so the golden file covers the same selection
// as the text run.
var paperArtifactArgs = []string{"-json", "-table1", "-table2", "-table3", "-table4", "-table5", "-fig4", "-fig5", "-rq1", "-pipeline"}

const goldenArtifacts = "paper_artifacts.json"

// TestGoldenPaperArtifacts pins what kshot-bench reports for the paper
// byte-for-byte against testdata/golden/paper_artifacts.json. Every
// number in it is virtual time or a count, so the document is a pure
// function of the tree: it must not depend on the host, GOMAXPROCS or
// the scheduling of the pipelined comparison's fetch workers. A
// mismatch means a paper figure moved. Regenerate deliberately with
//
//	go test ./cmd/kshot-bench -run GoldenPaperArtifacts -update
func TestGoldenPaperArtifacts(t *testing.T) {
	var out strings.Builder
	if err := run(paperArtifactArgs, &out); err != nil {
		t.Fatal(err)
	}
	got := []byte(out.String())
	path := filepath.Join("testdata", "golden", goldenArtifacts)
	if *update {
		if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(path, got, 0o644); err != nil {
			t.Fatal(err)
		}
		t.Logf("rewrote %s (%d bytes)", path, len(got))
		return
	}
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatalf("%v (regenerate with -update)", err)
	}
	if !bytes.Equal(got, want) {
		t.Fatalf("paper artifacts differ from %s:\n%s\nrerun with -update if the change is intended",
			path, firstDiff(string(want), string(got)))
	}
}

// firstDiff pinpoints the first differing line so a golden mismatch is
// debuggable without dumping both documents.
func firstDiff(want, got string) string {
	wl := strings.Split(want, "\n")
	gl := strings.Split(got, "\n")
	n := min(len(wl), len(gl))
	for i := 0; i < n; i++ {
		if wl[i] != gl[i] {
			return fmt.Sprintf("line %d:\n  want: %q\n  got:  %q", i+1, wl[i], gl[i])
		}
	}
	return fmt.Sprintf("line counts differ: want %d lines, got %d", len(wl), len(gl))
}

// goldenDoc is the part of the golden document the tests below read.
type goldenDoc struct {
	SizeSweep  []evalharness.SizePoint         `json:"size_sweep"`
	Table5     []evalharness.ComparisonRow     `json:"table5"`
	Pipeline   evalharness.PipelinedComparison `json:"pipeline"`
	FigureCVEs []evalharness.CVEPoint          `json:"figure_cves"`
}

// readGolden decodes the committed golden document, which
// TestGoldenPaperArtifacts keeps equal to a fresh run.
func readGolden(t *testing.T) goldenDoc {
	t.Helper()
	raw, err := os.ReadFile(filepath.Join("testdata", "golden", goldenArtifacts))
	if err != nil {
		t.Fatal(err)
	}
	var doc goldenDoc
	if err := json.Unmarshal(raw, &doc); err != nil {
		t.Fatal(err)
	}
	return doc
}

// TestPipelinedBeatsSerial is the acceptance gate for the batched
// pipeline: applying all 30 Table I CVEs through ApplyAll must take
// strictly fewer than 30 SMM world switches and strictly less total
// virtual OS pause than the serial per-patch path, while every patch
// still lands. It reads the golden document's pipeline entry.
func TestPipelinedBeatsSerial(t *testing.T) {
	p := readGolden(t).Pipeline
	if p.Patches != 30 {
		t.Fatalf("pipeline applied %d patches, want 30", p.Patches)
	}
	if p.SerialSMIs != 30 {
		t.Errorf("serial mode took %d SMIs, want exactly 30", p.SerialSMIs)
	}
	if p.BatchSMIs >= 30 {
		t.Errorf("batched mode took %d SMIs, want strictly fewer than 30", p.BatchSMIs)
	}
	if p.BatchPause >= p.SerialPause {
		t.Errorf("batched pause %v not below serial pause %v", p.BatchPause, p.SerialPause)
	}
	if p.Degraded != 0 || p.Retries != 0 {
		t.Errorf("unexpected degradations (%d) or retries (%d) on an idle machine", p.Degraded, p.Retries)
	}
}

// TestExperimentsMatchGolden keeps EXPERIMENTS.md honest against the
// golden file:
//   - every "paper → measured" cell of Tables II and III reads exactly
//     what kshot-bench prints for that cell (report.Us of the golden
//     value; thousands separators aside);
//   - every "paper → measured" OS-pause cell of Table V reads the golden
//     pause in the unit and to the decimals the cell shows;
//   - every cell of the pipelined ApplyAll table reads what kshot-bench
//     -pipeline prints (counts, report.Us pauses, the reduction to 0.1 %);
//   - every number the Figure 4 and Figure 5 prose quotes reads the
//     golden per-CVE stages (see figureProse);
//   - the SHA-256 verify and pause and the prep-location blow-ups the
//     Ablations section quotes read the golden size sweep (see
//     ablationProse).
func TestExperimentsMatchGolden(t *testing.T) {
	doc := readGolden(t)
	bySize := make(map[string]evalharness.SizePoint, len(doc.SizeSweep))
	for _, p := range doc.SizeSweep {
		bySize[report.Bytes(p.Size)] = p
	}
	md, err := os.ReadFile(filepath.Join("..", "..", "EXPERIMENTS.md"))
	if err != nil {
		t.Fatal(err)
	}
	for _, tc := range []struct {
		heading string
		cols    func(evalharness.SizePoint) []time.Duration
	}{
		{"## Table II ", func(p evalharness.SizePoint) []time.Duration {
			return []time.Duration{p.Fetch, p.Preprocess, p.Pass, p.SGXTotal()}
		}},
		{"## Table III ", func(p evalharness.SizePoint) []time.Duration {
			return []time.Duration{p.Decrypt, p.Verify, p.Apply, p.SMMTotal()}
		}},
	} {
		rows := 0
		for _, line := range tableLines(string(md), tc.heading) {
			cells := strings.Split(strings.Trim(line, "| "), "|")
			p, ok := bySize[strings.TrimSpace(cells[0])]
			if !ok {
				continue // header and separator rows
			}
			rows++
			want := tc.cols(p)
			if len(cells)-1 != len(want) {
				t.Errorf("%s row %q: %d value cells, want %d", tc.heading, cells[0], len(cells)-1, len(want))
				continue
			}
			for i, cell := range cells[1:] {
				_, measured, found := strings.Cut(cell, "→")
				measured = strings.ReplaceAll(strings.TrimSpace(measured), ",", "")
				if !found || measured != report.Us(want[i]) {
					t.Errorf("%s row %q column %d reads %q, kshot-bench prints %s",
						strings.TrimSpace(tc.heading), strings.TrimSpace(cells[0]), i+1, strings.TrimSpace(cell), report.Us(want[i]))
				}
			}
		}
		if rows != len(evalharness.PaperSizes) {
			t.Errorf("%s: found %d size rows, want %d", strings.TrimSpace(tc.heading), rows, len(evalharness.PaperSizes))
		}
	}

	// Table V's pause column. KARMA pauses nothing, so its cell gives the
	// whole patch's time and says "total".
	bySystem := make(map[string]evalharness.ComparisonRow, len(doc.Table5))
	for _, r := range doc.Table5 {
		bySystem[r.System] = r
	}
	rows := 0
	for _, line := range tableLines(string(md), "## Table V ") {
		cells := tableCells(line)
		r, ok := bySystem[cells[0]]
		if !ok || len(cells) < 3 {
			continue
		}
		rows++
		_, measured, found := strings.Cut(cells[2], "→")
		measured = strings.TrimSpace(measured)
		want := r.Pause
		if m, ok := strings.CutSuffix(measured, " total"); ok {
			measured, want = m, r.Total
		}
		if !found || measured != atPrecisionOf(measured, want) {
			t.Errorf("Table V %s pause reads %q, golden pause is %v", r.System, cells[2], want)
		}
	}
	if rows != len(doc.Table5) {
		t.Errorf("Table V: found %d system rows, want %d", rows, len(doc.Table5))
	}

	p := doc.Pipeline
	wantPipelined := map[string][]string{
		"serial `Apply`": {fmt.Sprint(p.Patches), fmt.Sprint(p.SerialSMIs), report.Us(p.SerialPause) + " µs"},
		"pipelined `ApplyAll`": {fmt.Sprint(p.Patches), fmt.Sprint(p.BatchSMIs),
			fmt.Sprintf("%s µs (−%.1f %%)", report.Us(p.BatchPause), 100*p.PauseReduction())},
	}
	rows = 0
	for _, line := range tableLines(string(md), "## Pipelined ApplyAll vs serial Apply ") {
		cells := tableCells(line)
		want, ok := wantPipelined[cells[0]]
		if !ok {
			continue
		}
		rows++
		if !slices.Equal(cells[1:], want) {
			t.Errorf("pipelined table row %s reads %q, kshot-bench prints %q", cells[0], cells[1:], want)
		}
	}
	if rows != len(wantPipelined) {
		t.Errorf("pipelined table: found %d mode rows, want %d", rows, len(wantPipelined))
	}

	sections := figureProse(t, doc.FigureCVEs)
	sections["## Ablations "] = ablationProse(t, bySize)
	for heading, phrases := range sections {
		prose := strings.Join(strings.Fields(section(string(md), heading)), " ")
		for _, p := range phrases {
			if !strings.Contains(prose, p) {
				t.Errorf("%s prose lacks %q, which the golden stages give", strings.TrimSpace(heading), p)
			}
		}
	}
}

// figureCVE is the CVE the paper quotes a Figure 5 pause for.
const figureCVE = "CVE-2014-4608"

// figureProse returns, per EXPERIMENTS section heading, the phrases the
// Figure 4 and Figure 5 prose must contain for the golden per-CVE
// stages: the fetch, pre-process and pass ranges in whole µs, the
// pre-processing share of each SGX bar to 0.1 %, the smallest and
// largest payloads, the SMM pause range, figureCVE's pause, and the
// constant switch and key-generation costs. It also checks the two
// shape claims the prose makes: bars order by payload size, and switch
// and key generation do not vary.
func figureProse(t *testing.T, pts []evalharness.CVEPoint) map[string][]string {
	t.Helper()
	if len(pts) == 0 {
		t.Fatal("golden file has no figure_cves")
	}
	pts = slices.Clone(pts)
	slices.SortFunc(pts, func(a, b evalharness.CVEPoint) int { return a.Bytes - b.Bytes })
	span := func(f func(evalharness.CVEPoint) float64) (lo, hi float64) {
		lo, hi = f(pts[0]), f(pts[0])
		for _, p := range pts[1:] {
			lo, hi = min(lo, f(p)), max(hi, f(p))
		}
		return lo, hi
	}
	wholeUs := func(f func(evalharness.CVEPoint) time.Duration) string {
		lo, hi := span(func(p evalharness.CVEPoint) float64 { return us(f(p)) })
		return thousands(lo) + "–" + thousands(hi)
	}
	size := func(n int) string {
		if n < 1<<10 {
			return fmt.Sprintf("%d B", n)
		}
		return fmt.Sprintf("%.1f KB", float64(n)/(1<<10))
	}
	lo, hi := span(func(p evalharness.CVEPoint) float64 {
		return 100 * float64(p.Stages.Preprocess) / float64(p.Stages.SGXTotal())
	})
	smallest, largest := pts[0], pts[len(pts)-1]
	fig4 := []string{
		"fetch " + wholeUs(func(p evalharness.CVEPoint) time.Duration { return p.Stages.Fetch }),
		"pre-process " + wholeUs(func(p evalharness.CVEPoint) time.Duration { return p.Stages.Preprocess }),
		"pass " + wholeUs(func(p evalharness.CVEPoint) time.Duration { return p.Stages.Pass }),
		fmt.Sprintf("pre-processing is %.1f–%.1f %% of every bar", lo, hi),
		fmt.Sprintf("(%s %s smallest → %s %s largest)", smallest.CVE, size(smallest.Bytes), largest.CVE, size(largest.Bytes)),
	}
	for i := 1; i < len(pts); i++ {
		if pts[i].Stages.SGXTotal() <= pts[i-1].Stages.SGXTotal() {
			t.Errorf("Figure 4 bars do not order by payload size: %s (%d B) is not taller than %s (%d B)",
				pts[i].CVE, pts[i].Bytes, pts[i-1].CVE, pts[i-1].Bytes)
		}
	}

	lo, hi = span(func(p evalharness.CVEPoint) float64 { return us(p.Stages.SMMTotal()) })
	fig5 := []string{fmt.Sprintf("total pause %.2f–%.2f µs", lo, hi)}
	for _, p := range pts {
		if p.CVE == figureCVE {
			fig5 = append(fig5, fmt.Sprintf("(%s: **%.2f µs**)", p.CVE, us(p.Stages.SMMTotal())))
		}
		if p.Stages.Switch != pts[0].Stages.Switch || p.Stages.KeyGen != pts[0].Stages.KeyGen {
			t.Errorf("Figure 5: %s switch %v / keygen %v differ from %s's", p.CVE, p.Stages.Switch, p.Stages.KeyGen, pts[0].CVE)
		}
	}
	if len(fig5) != 2 {
		t.Errorf("golden figure_cves lacks %s", figureCVE)
	}
	fig5 = append(fig5, fmt.Sprintf("switch %.1f µs and keygen %.1f µs constant",
		us(pts[0].Stages.Switch), us(pts[0].Stages.KeyGen)))
	return map[string][]string{"## Figure 4 ": fig4, "## Figure 5 ": fig5}
}

// ablationProse returns the phrases the Ablations section must contain
// for the golden size sweep: the SHA-256 verify and OS pause at 400 KB
// in whole µs, and the pause blow-up of preprocessing inside the SMM
// handler, (SMM total + Preprocess) / SMM total, at 4 KB and 400 KB.
func ablationProse(t *testing.T, bySize map[string]evalharness.SizePoint) []string {
	t.Helper()
	point := func(size int) evalharness.SizePoint {
		p, ok := bySize[report.Bytes(size)]
		if !ok {
			t.Fatalf("golden size_sweep lacks %s", report.Bytes(size))
		}
		return p
	}
	blowup := func(p evalharness.SizePoint) float64 {
		return float64(p.SMMTotal()+p.Preprocess) / float64(p.SMMTotal())
	}
	p4k, p400k := point(4<<10), point(400<<10)
	return []string{
		fmt.Sprintf("verify drops %.0f µs →", us(p400k.Verify)),
		fmt.Sprintf("pause drops %.0f µs →", us(p400k.SMMTotal())),
		fmt.Sprintf("pause up %.0f× at 4 KB and %.0f× at 400 KB", blowup(p4k), blowup(p400k)),
	}
}

// us converts d to microseconds.
func us(d time.Duration) float64 { return float64(d) / float64(time.Microsecond) }

// thousands rounds v to a whole number and groups its digits by
// thousands with commas, as EXPERIMENTS writes large µs values.
func thousands(v float64) string {
	s := fmt.Sprintf("%.0f", v)
	for i := len(s) - 3; i > 0; i -= 3 {
		s = s[:i] + "," + s[i:]
	}
	return s
}

// tableCells splits a markdown table row into trimmed cells, dropping
// bold markers.
func tableCells(line string) []string {
	cells := strings.Split(strings.Trim(line, "| "), "|")
	for i, c := range cells {
		cells[i] = strings.TrimSpace(strings.ReplaceAll(c, "**", ""))
	}
	return cells
}

// atPrecisionOf formats d like cell: in cell's unit (s, ms or µs) and
// with as many decimals as cell's number has.
func atPrecisionOf(cell string, d time.Duration) string {
	num, unit, _ := strings.Cut(cell, " ")
	scale := map[string]time.Duration{"s": time.Second, "ms": time.Millisecond, "µs": time.Microsecond}[unit]
	if scale == 0 {
		return ""
	}
	decimals := 0
	if _, frac, ok := strings.Cut(num, "."); ok {
		decimals = len(frac)
	}
	return fmt.Sprintf("%.*f %s", decimals, float64(d)/float64(scale), unit)
}

// section returns the text of the section that starts with heading,
// up to the next section.
func section(md, heading string) string {
	_, body, _ := strings.Cut(md, "\n"+heading)
	body, _, _ = strings.Cut(body, "\n## ")
	return body
}

// tableLines returns the markdown table rows of the section that
// starts with heading.
func tableLines(md, heading string) []string {
	var rows []string
	for _, line := range strings.Split(section(md, heading), "\n") {
		if strings.HasPrefix(line, "|") {
			rows = append(rows, line)
		}
	}
	return rows
}
