package evalharness

import (
	"bytes"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"kshot/internal/isa"
	"kshot/internal/timing"
)

var update = flag.Bool("update", false, "rewrite golden files with the current output")

const goldenReport = "report_30cve.txt"

// TestGoldenPhaseReport runs the full 30-CVE batched deployment under a
// fake wall clock with synchronous fetching and asserts the rendered
// observability report — phase table, metrics snapshot, event trace —
// byte-for-byte against testdata/golden/report_30cve.txt, once per
// execution engine. Every time source is virtual and the pipeline is
// single-threaded, so the output is a pure function of the suite — and
// because all durations are virtual steps, the block engine and the
// decode-switch oracle must render the exact same bytes: a golden
// mismatch between the two modes is an engine-equivalence bug, not a
// report change. Regenerate deliberately with
//
//	go test ./internal/evalharness -run Golden -update
//
// (-update writes from the default blocks run; the oracle subtest then
// re-checks the fresh file.)
func TestGoldenPhaseReport(t *testing.T) {
	if testing.Short() {
		t.Skip("full 30-CVE deployment in -short mode")
	}
	path := filepath.Join("testdata", "golden", goldenReport)
	for _, mode := range []isa.Dispatch{isa.DispatchBlocks, isa.DispatchOracle} {
		t.Run(mode.String(), func(t *testing.T) {
			b, err := RunPhaseBreakdown(PhaseOptions{
				Workers:  1,
				Wall:     timing.NewFakeWall(),
				Dispatch: mode,
			})
			if err != nil {
				t.Fatal(err)
			}
			var buf bytes.Buffer
			if err := RenderPhaseReport(&buf, b); err != nil {
				t.Fatal(err)
			}
			got := buf.Bytes()

			if *update && mode == isa.DispatchBlocks {
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
				t.Fatalf("report under %s dispatch differs from %s:\n%s\nrerun with -update if the change is intended",
					mode, path, firstDiff(string(want), string(got)))
			}
		})
	}
}

// firstDiff pinpoints the first differing line so a golden mismatch is
// debuggable without dumping both multi-hundred-line reports.
func firstDiff(want, got string) string {
	wl := strings.Split(want, "\n")
	gl := strings.Split(got, "\n")
	n := len(wl)
	if len(gl) < n {
		n = len(gl)
	}
	for i := 0; i < n; i++ {
		if wl[i] != gl[i] {
			return fmt.Sprintf("line %d:\n  want: %q\n  got:  %q", i+1, wl[i], gl[i])
		}
	}
	return fmt.Sprintf("line counts differ: want %d lines, got %d", len(wl), len(gl))
}
