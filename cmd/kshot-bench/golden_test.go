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

// TestExperimentsMatchGolden keeps EXPERIMENTS.md honest against the
// golden file:
//   - every "paper → measured" cell of Tables II and III reads exactly
//     what kshot-bench prints for that cell (report.Us of the golden
//     value; thousands separators aside);
//   - every "paper → measured" OS-pause cell of Table V reads the golden
//     pause in the unit and to the decimals the cell shows;
//   - every cell of the pipelined ApplyAll table reads what kshot-bench
//     -pipeline prints (counts, report.Us pauses, the reduction to 0.1 %).
func TestExperimentsMatchGolden(t *testing.T) {
	raw, err := os.ReadFile(filepath.Join("testdata", "golden", goldenArtifacts))
	if err != nil {
		t.Fatal(err)
	}
	var doc struct {
		SizeSweep []evalharness.SizePoint         `json:"size_sweep"`
		Table5    []evalharness.ComparisonRow     `json:"table5"`
		Pipeline  evalharness.PipelinedComparison `json:"pipeline"`
	}
	if err := json.Unmarshal(raw, &doc); err != nil {
		t.Fatal(err)
	}
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

// tableLines returns the markdown table rows of the section that
// starts with heading, up to the next section.
func tableLines(md, heading string) []string {
	_, section, _ := strings.Cut(md, "\n"+heading)
	section, _, _ = strings.Cut(section, "\n## ")
	var rows []string
	for _, line := range strings.Split(section, "\n") {
		if strings.HasPrefix(line, "|") {
			rows = append(rows, line)
		}
	}
	return rows
}
