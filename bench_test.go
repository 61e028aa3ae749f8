package kshot

// The benchmark harness regenerates every table and figure of the
// paper's evaluation (§VI). Each benchmark reports the same per-stage
// virtual-time metrics the corresponding paper artifact tabulates
// (suffix _vus = virtual microseconds from the calibrated cost model),
// alongside Go's real ns/op for the simulation itself. Absolute
// numbers are not expected to match the authors' i7 testbed; the
// shapes — linearity in patch size, stage dominance, system ordering —
// are asserted by the test suite and recorded in EXPERIMENTS.md.
//
//	go test -bench=. -benchmem

import (
	"fmt"
	"testing"
	"time"

	"kshot/internal/evalharness"
	"kshot/internal/kcrypto"
	"kshot/internal/timing"
)

func vus(d time.Duration) float64 { return float64(d.Nanoseconds()) / 1000 }

// BenchmarkTable1Suite builds the full 30-CVE binary patch suite
// (Table I): source diff, call-graph/inlining analysis, binary
// matching, and payload extraction for every entry.
func BenchmarkTable1Suite(b *testing.B) {
	for i := 0; i < b.N; i++ {
		tbl, err := evalharness.Table1()
		if err != nil {
			b.Fatal(err)
		}
		_ = tbl
	}
	b.ReportMetric(30, "patches")
}

// BenchmarkTable2SGXBreakdown reproduces Table II: the SGX-side stage
// breakdown (fetching, pre-processing, passing) across the paper's
// patch sizes from 40 B to 10 MB.
func BenchmarkTable2SGXBreakdown(b *testing.B) {
	for _, size := range evalharness.PaperSizes {
		b.Run(sizeName(size), func(b *testing.B) {
			pt, err := evalharness.RunSizePoint(size, b.N, kcrypto.HashSHA256)
			if err != nil {
				b.Fatal(err)
			}
			b.ReportMetric(vus(pt.Fetch), "fetch_vus")
			b.ReportMetric(vus(pt.Preprocess), "preprocess_vus")
			b.ReportMetric(vus(pt.Pass), "pass_vus")
			b.ReportMetric(vus(pt.SGXTotal()), "total_vus")
		})
	}
}

// BenchmarkTable3SMMBreakdown reproduces Table III: the SMM-side stage
// breakdown (decryption, verification, application; total including
// key generation and world switches) across the same sizes.
func BenchmarkTable3SMMBreakdown(b *testing.B) {
	for _, size := range evalharness.PaperSizes {
		b.Run(sizeName(size), func(b *testing.B) {
			pt, err := evalharness.RunSizePoint(size, b.N, kcrypto.HashSHA256)
			if err != nil {
				b.Fatal(err)
			}
			b.ReportMetric(vus(pt.Decrypt), "decrypt_vus")
			b.ReportMetric(vus(pt.Verify), "verify_vus")
			b.ReportMetric(vus(pt.Apply), "apply_vus")
			b.ReportMetric(vus(pt.SMMTotal()), "total_vus")
		})
	}
}

// BenchmarkFigure4SGXPerCVE reproduces Figure 4: SGX-based patch
// preparation time for the six whole-system CVEs of §VI-C3.
func BenchmarkFigure4SGXPerCVE(b *testing.B) {
	benchFigureCVEs(b, func(b *testing.B, p evalharness.CVEPoint) {
		b.ReportMetric(vus(p.Stages.Fetch), "fetch_vus")
		b.ReportMetric(vus(p.Stages.Preprocess), "preprocess_vus")
		b.ReportMetric(vus(p.Stages.Pass), "pass_vus")
		b.ReportMetric(float64(p.Bytes), "payload_bytes")
	})
}

// BenchmarkFigure5SMMPerCVE reproduces Figure 5: SMM-based live
// patching time for the same six CVEs.
func BenchmarkFigure5SMMPerCVE(b *testing.B) {
	benchFigureCVEs(b, func(b *testing.B, p evalharness.CVEPoint) {
		b.ReportMetric(vus(p.Stages.KeyGen), "keygen_vus")
		b.ReportMetric(vus(p.Stages.Decrypt), "decrypt_vus")
		b.ReportMetric(vus(p.Stages.Verify), "verify_vus")
		b.ReportMetric(vus(p.Stages.Apply), "apply_vus")
		b.ReportMetric(vus(p.Stages.Switch), "switch_vus")
		b.ReportMetric(vus(p.Stages.SMMTotal()), "pause_vus")
	})
}

func benchFigureCVEs(b *testing.B, report func(*testing.B, evalharness.CVEPoint)) {
	for _, e := range FigureCVEs() {
		cve := e.CVE
		b.Run(cve, func(b *testing.B) {
			pt, err := evalharness.RunFigureCVEOnce(cve, b.N)
			if err != nil {
				b.Fatal(err)
			}
			report(b, pt)
		})
	}
}

// BenchmarkTable5Comparison reproduces Table V: kpatch-, KUP- and
// KARMA-style baselines against KShot on the same machine and CVE,
// reporting OS-pause, total time, and memory consumption.
func BenchmarkTable5Comparison(b *testing.B) {
	for _, system := range []string{"KUP", "KARMA", "kpatch", "KShot"} {
		b.Run(system, func(b *testing.B) {
			var pause, total time.Duration
			var memBytes uint64
			for i := 0; i < b.N; i++ {
				rows, err := evalharness.RunTable5("CVE-2014-4157")
				if err != nil {
					b.Fatal(err)
				}
				for _, r := range rows {
					if r.System == system {
						pause, total, memBytes = r.Pause, r.Total, r.MemoryBytes
					}
				}
			}
			b.ReportMetric(vus(pause), "pause_vus")
			b.ReportMetric(vus(total), "total_vus")
			b.ReportMetric(float64(memBytes), "mem_bytes")
		})
	}
}

// BenchmarkSMMFixedCosts verifies the §VI-C2 fixed-cost constants the
// model carries (switch to SMM 12.9µs, resume 21.7µs, key generation
// 5.2µs).
func BenchmarkSMMFixedCosts(b *testing.B) {
	model := timing.Calibrated()
	for i := 0; i < b.N; i++ {
		_ = model
	}
	b.ReportMetric(vus(model.SMMEntry), "smm_entry_vus")
	b.ReportMetric(vus(model.SMMExit), "smm_exit_vus")
	b.ReportMetric(vus(model.KeyGen), "keygen_vus")
}

// BenchmarkSysbenchOverhead reproduces the §VI-C3 whole-system
// experiment: workload throughput with and without a live patch storm
// (the paper runs 1,000 patches and reports <3% overhead; the
// benchmark uses a proportional storm per iteration and reports the
// measured fraction).
func BenchmarkSysbenchOverhead(b *testing.B) {
	var res *evalharness.OverheadResult
	for i := 0; i < b.N; i++ {
		r, err := evalharness.RunOverhead(20, 400*time.Millisecond)
		if err != nil {
			b.Fatal(err)
		}
		res = r
	}
	b.ReportMetric(res.Overhead*100, "wall_overhead_pct")
	b.ReportMetric(res.VirtualPauseFraction*100, "pause_fraction_pct")
	b.ReportMetric(vus(res.PausePerOp), "pause_per_patch_vus")
}

// BenchmarkAblationVerifyHash compares SHA-256 against the SDBM hash
// the paper suggests for cutting SMM verification time (§VI-C2),
// at the 400 KB size where verification dominates.
func BenchmarkAblationVerifyHash(b *testing.B) {
	for _, alg := range []kcrypto.HashAlg{kcrypto.HashSHA256, kcrypto.HashSDBM} {
		b.Run(alg.String(), func(b *testing.B) {
			pt, err := evalharness.RunSizePoint(400<<10, b.N, alg)
			if err != nil {
				b.Fatal(err)
			}
			b.ReportMetric(vus(pt.Verify), "verify_vus")
			b.ReportMetric(vus(pt.SMMTotal()), "pause_vus")
		})
	}
}

// BenchmarkAblationPrepLocation quantifies the paper's core design
// decision: preprocessing in the (non-blocking) SGX enclave versus
// hypothetically doing it inside the (blocking) SMM handler. The
// as-built OS pause excludes preprocessing; the ablated pause adds it.
func BenchmarkAblationPrepLocation(b *testing.B) {
	for _, size := range []int{4 << 10, 400 << 10} {
		b.Run(sizeName(size), func(b *testing.B) {
			pt, err := evalharness.RunSizePoint(size, b.N, kcrypto.HashSHA256)
			if err != nil {
				b.Fatal(err)
			}
			asBuilt := pt.SMMTotal()
			inSMM := asBuilt + pt.Preprocess
			b.ReportMetric(vus(asBuilt), "pause_sgxprep_vus")
			b.ReportMetric(vus(inSMM), "pause_smmprep_vus")
			b.ReportMetric(float64(inSMM)/float64(asBuilt), "pause_blowup_x")
		})
	}
}

func sizeName(n int) string {
	switch {
	case n >= 1<<20:
		return fmt.Sprintf("%dMB", n>>20)
	case n >= 1<<10:
		return fmt.Sprintf("%dKB", n>>10)
	default:
		return fmt.Sprintf("%dB", n)
	}
}

// BenchmarkPipelinedApplyAll reproduces the batched-SMI experiment:
// the full Table I suite applied serially (one SMI per patch) versus
// through the concurrent ApplyAll pipeline (batched SMIs), on
// identically provisioned deployments per conflict-free wave.
func BenchmarkPipelinedApplyAll(b *testing.B) {
	var p *evalharness.PipelinedComparison
	for i := 0; i < b.N; i++ {
		r, err := evalharness.RunPipelinedComparison("4.4", 8, 4)
		if err != nil {
			b.Fatal(err)
		}
		p = r
	}
	b.ReportMetric(float64(p.Patches), "patches")
	b.ReportMetric(float64(p.SerialSMIs), "serial_smis")
	b.ReportMetric(float64(p.BatchSMIs), "batch_smis")
	b.ReportMetric(vus(p.SerialPause), "serial_pause_vus")
	b.ReportMetric(vus(p.BatchPause), "batch_pause_vus")
	b.ReportMetric(100*p.PauseReduction(), "pause_reduction_pct")
}

// BenchmarkProvision measures target provisioning two ways: cold, with
// no template cache (each System boots a single-use template — kernel
// build, machine bring-up — and forks it once), versus forked from a
// cached template (COW frames, per-fork secrets, SMRAM lock). Neither
// touches the server: attach and the bootstrap SMI wait for first
// contact. The forked/cold ns/op ratio is the template-cache payoff;
// systems_per_sec is the fleet provisioning rate either mode sustains.
func BenchmarkProvision(b *testing.B) {
	entry, _ := LookupCVE("CVE-2014-0196")
	srv, err := NewPatchServer(WithTreeProvider(TreeProviderFor(entry)))
	if err != nil {
		b.Fatal(err)
	}
	defer srv.Close()
	srv.RegisterPatch(entry.SourcePatch())
	files := map[string]string{entry.File: entry.Vuln}

	b.Run("cold", func(b *testing.B) {
		start := time.Now()
		for i := 0; i < b.N; i++ {
			sys, err := New(WithExtraFiles(files), WithServerAddr(srv.Addr()))
			if err != nil {
				b.Fatal(err)
			}
			sys.Close()
		}
		b.ReportMetric(float64(b.N)/time.Since(start).Seconds(), "systems_per_sec")
	})
	b.Run("forked", func(b *testing.B) {
		cache := NewTemplateCache()
		defer cache.Close()
		// Boot the template outside the timed region: it is a one-time
		// per-configuration cost the fleet amortizes.
		warm, err := New(WithExtraFiles(files), WithServerAddr(srv.Addr()), WithTemplateCache(cache))
		if err != nil {
			b.Fatal(err)
		}
		warm.Close()
		b.ResetTimer()
		start := time.Now()
		for i := 0; i < b.N; i++ {
			sys, err := New(WithExtraFiles(files), WithServerAddr(srv.Addr()), WithTemplateCache(cache))
			if err != nil {
				b.Fatal(err)
			}
			sys.Close()
		}
		b.ReportMetric(float64(b.N)/time.Since(start).Seconds(), "systems_per_sec")
	})
}

// TestPipelinedBeatsSerial is the acceptance gate for the batched
// pipeline: applying all 30 Table I CVEs through ApplyAll must take
// strictly fewer than 30 SMM world switches and strictly less total
// virtual OS pause than the serial per-patch path, while every patch
// still lands.
func TestPipelinedBeatsSerial(t *testing.T) {
	if testing.Short() {
		t.Skip("pipelined sweep skipped in -short mode")
	}
	p, err := evalharness.RunPipelinedComparison("4.4", 8, 4)
	if err != nil {
		t.Fatal(err)
	}
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
	t.Logf("serial: %d SMIs, %v pause; batched: %d SMIs (%d batches + %d singles), %v pause (-%.1f%%)",
		p.SerialSMIs, p.SerialPause, p.BatchSMIs, p.Batches, p.Singles,
		p.BatchPause, 100*p.PauseReduction())
}
