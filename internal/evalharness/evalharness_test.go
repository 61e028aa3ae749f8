package evalharness

import (
	"strings"
	"testing"
	"time"

	"kshot/internal/cvebench"
	"kshot/internal/kcrypto"
)

func TestSizePointSmall(t *testing.T) {
	pt, err := RunSizePoint(400, kcrypto.HashSHA256)
	if err != nil {
		t.Fatal(err)
	}
	if pt.Size != 400 {
		t.Errorf("size = %d", pt.Size)
	}
	for name, d := range map[string]time.Duration{
		"fetch": pt.Fetch, "prep": pt.Preprocess, "pass": pt.Pass,
		"keygen": pt.KeyGen, "decrypt": pt.Decrypt, "verify": pt.Verify,
		"apply": pt.Apply, "switch": pt.Switch,
	} {
		if d <= 0 {
			t.Errorf("stage %s = %v", name, d)
		}
	}
	if pt.SMMTotal() >= pt.SGXTotal() {
		t.Errorf("SMM total %v >= SGX total %v at 400B", pt.SMMTotal(), pt.SGXTotal())
	}
}

func TestSizeSweepShapeIsLinear(t *testing.T) {
	// Two decades apart: the per-stage times must scale roughly
	// linearly (fixed costs aside) — the paper's headline shape.
	small, err := RunSizePoint(4<<10, kcrypto.HashSHA256)
	if err != nil {
		t.Fatal(err)
	}
	big, err := RunSizePoint(400<<10, kcrypto.HashSHA256)
	if err != nil {
		t.Fatal(err)
	}
	ratio := float64(big.Preprocess) / float64(small.Preprocess)
	if ratio < 30 || ratio > 300 {
		t.Errorf("preprocess scaling 4KB->400KB = %.1fx, want ~100x", ratio)
	}
	if big.Verify <= small.Verify || big.Apply <= small.Apply {
		t.Error("SMM stages did not grow with size")
	}
	// The paper's crossover: at small sizes fixed SMM costs dominate;
	// verification dominates among size-dependent SMM stages.
	if big.Verify <= big.Decrypt {
		t.Error("verification should dominate decryption (SHA-256 vs AES-CTR)")
	}
}

func TestSDBMVerifyCheaper(t *testing.T) {
	sha, err := RunSizePoint(400<<10, kcrypto.HashSHA256)
	if err != nil {
		t.Fatal(err)
	}
	sdbm, err := RunSizePoint(400<<10, kcrypto.HashSDBM)
	if err != nil {
		t.Fatal(err)
	}
	if sdbm.Verify >= sha.Verify {
		t.Errorf("SDBM verify %v not cheaper than SHA-256 %v", sdbm.Verify, sha.Verify)
	}
}

func TestTableRendering(t *testing.T) {
	points := []SizePoint{{
		Size: 4096, Fetch: 200 * time.Microsecond,
		Preprocess: 8 * time.Millisecond, Pass: 51 * time.Microsecond,
		KeyGen: 5200, Decrypt: 1270, Verify: 8520, Apply: 6920,
		Switch: 34600,
	}}
	t2 := Table2(points)
	if !strings.Contains(t2.String(), "4KB") {
		t.Error("Table2 missing size row")
	}
	t3 := Table3(points)
	if !strings.Contains(t3.String(), "key generation") {
		t.Error("Table3 missing footnote")
	}
}

func TestFigureCVEsAndRendering(t *testing.T) {
	points, err := RunFigureCVEs()
	if err != nil {
		t.Fatal(err)
	}
	if len(points) != 6 {
		t.Fatalf("figure points = %d, want 6", len(points))
	}
	// Sizes differ across CVEs, so the figures show a spread.
	sizes := map[int]bool{}
	for _, p := range points {
		if p.Bytes == 0 {
			t.Errorf("%s: zero payload", p.CVE)
		}
		sizes[p.Bytes] = true
		if p.Stages.Preprocess <= 0 || p.Stages.Apply <= 0 {
			t.Errorf("%s: empty stages %+v", p.CVE, p.Stages)
		}
	}
	if len(sizes) < 4 {
		t.Errorf("only %d distinct payload sizes across 6 CVEs", len(sizes))
	}
	f4, f5 := Figure4(points), Figure5(points)
	if !strings.Contains(f4.String(), "CVE-2014-4608") || !strings.Contains(f5.String(), "CVE-2016-5195") {
		t.Error("figures missing CVE labels")
	}
}

func TestTable1Builds(t *testing.T) {
	tbl, err := Table1()
	if err != nil {
		t.Fatal(err)
	}
	out := tbl.String()
	for _, probe := range []string{"CVE-2014-0196", "CVE-2018-10124", "n_tty_write", "1,2"} {
		if !strings.Contains(out, probe) {
			t.Errorf("Table1 missing %q", probe)
		}
	}
}

func TestTable5Comparison(t *testing.T) {
	rows, err := RunTable5("CVE-2014-4157")
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 4 {
		t.Fatalf("rows = %d, want 4", len(rows))
	}
	byName := map[string]ComparisonRow{}
	for _, r := range rows {
		byName[r.System] = r
	}
	kup, kshot, kpatch, karma := byName["KUP"], byName["KShot"], byName["kpatch"], byName["KARMA"]
	// Paper shape: KUP seconds >> kpatch ms >> KShot tens of µs;
	// KARMA fastest for tiny patches; only KShot survives kernel
	// compromise; KUP memory far above KShot's 18MB? (KUP checkpoints
	// app state; here the kernel heap) — KShot's reservation is fixed.
	if kup.Pause < time.Second {
		t.Errorf("KUP pause %v below seconds scale", kup.Pause)
	}
	if kpatch.Pause < 500*time.Microsecond || kpatch.Pause > 100*time.Millisecond {
		t.Errorf("kpatch pause %v outside ms scale", kpatch.Pause)
	}
	if kshot.Pause > 500*time.Microsecond {
		t.Errorf("KShot pause %v above tens-of-µs scale", kshot.Pause)
	}
	if kshot.Pause >= kpatch.Pause || kpatch.Pause >= kup.Pause {
		t.Error("pause ordering KShot < kpatch < KUP violated")
	}
	if karma.Total >= kshot.Pause {
		t.Logf("note: KARMA total %v vs KShot pause %v", karma.Total, kshot.Pause)
	}
	if !kshot.Trusted || kup.Trusted || kpatch.Trusted || karma.Trusted {
		t.Error("trust column wrong")
	}
	if kshot.MemoryBytes != 18<<20 {
		t.Errorf("KShot memory %d, want 18MB", kshot.MemoryBytes)
	}
	out := Table5(rows).String()
	if !strings.Contains(out, "KShot") || !strings.Contains(out, "18MB") {
		t.Error("Table5 render incomplete")
	}
}

func TestTable4Render(t *testing.T) {
	out := Table4().String()
	for _, s := range []string{"Dyninst", "Kitsune", "KShot", "literature", "measured"} {
		if !strings.Contains(out, s) {
			t.Errorf("Table4 missing %q", s)
		}
	}
}

func TestRQ1SingleEntry(t *testing.T) {
	e := mustEntry(t, "CVE-2017-17053")
	row, err := runRQ1One("4.4", e)
	if err != nil {
		t.Fatal(err)
	}
	if !row.Passed() {
		t.Errorf("RQ1 row failed: %+v", row)
	}
	out := RQ1Table([]RQ1Row{row}).String()
	if !strings.Contains(out, "1/1 patches") {
		t.Errorf("RQ1 table summary wrong:\n%s", out)
	}
}

func TestOverheadSmallStorm(t *testing.T) {
	res, err := RunOverhead(10, 150*time.Millisecond)
	if err != nil {
		t.Fatal(err)
	}
	if res.Baseline.Ops == 0 || res.Disturbed.Ops == 0 {
		t.Fatal("workload produced no ops")
	}
	if res.PausePerOp <= 0 {
		t.Error("no pause accounted")
	}
	// The pause per patch must stay within the paper's tens-of-µs
	// scale for this ~160-byte patch.
	if res.PausePerOp > 500*time.Microsecond {
		t.Errorf("pause per patch %v above scale", res.PausePerOp)
	}
}

func mustEntry(t *testing.T, id string) *cvebench.Entry {
	t.Helper()
	e, ok := cvebench.Get(id)
	if !ok {
		t.Fatalf("unknown CVE %s", id)
	}
	return e
}

func TestRQ1On314Kernel(t *testing.T) {
	// The sweep works on the older kernel too (spot check: one CVE of
	// each type class).
	for _, id := range []string{"CVE-2014-0196", "CVE-2017-8251", "CVE-2015-8963"} {
		e := mustEntry(t, id)
		row, err := runRQ1One("3.14", e)
		if err != nil {
			t.Fatalf("%s: %v", id, err)
		}
		if !row.Passed() {
			t.Errorf("%s failed on 3.14: %+v", id, row)
		}
	}
}
