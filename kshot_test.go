package kshot

import (
	"context"
	"testing"
	"time"

	"kshot/internal/evalharness"
)

// TestRQ1AllCVEs is the paper's primary applicability result (§VI-B):
// every one of the 30 Table I CVE patches applies correctly — the
// exploit works before, fails after, the kernel stays healthy, and
// rollback restores the original behaviour.
func TestRQ1AllCVEs(t *testing.T) {
	if testing.Short() {
		t.Skip("RQ1 sweep skipped in -short mode")
	}
	rows, err := evalharness.RunRQ1("4.4", nil)
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 30 {
		t.Fatalf("ran %d CVEs, want 30", len(rows))
	}
	passed := 0
	for _, r := range rows {
		if r.Passed() {
			passed++
			continue
		}
		t.Errorf("%s (type %s): before=%v after=%v healthy=%v rollback=%v",
			r.CVE, r.Types, r.VulnBefore, r.VulnAfter, r.KernelHealthy, r.RollbackWorked)
	}
	if passed != 30 {
		t.Errorf("RQ1: %d/30 passed", passed)
	}
	// The paper's headline pause claim: ~50µs for ~1KB patches; all
	// of our (sub-4KB) benchmark patches must pause well under 1ms.
	for _, r := range rows {
		if r.PauseVirtual > time.Millisecond {
			t.Errorf("%s: OS pause %v above scale", r.CVE, r.PauseVirtual)
		}
	}
}

// TestPublicAPIQuickstart exercises the package-level API end to end,
// mirroring examples/quickstart.
func TestPublicAPIQuickstart(t *testing.T) {
	entry, ok := LookupCVE("CVE-2016-5195") // Dirty COW
	if !ok {
		t.Fatal("benchmark registry missing Dirty COW")
	}
	srv, err := NewPatchServer(WithTreeProvider(TreeProviderFor(entry)))
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()
	srv.RegisterPatch(entry.SourcePatch())

	sys, err := New(
		WithVersion("4.4"),
		WithExtraFiles(map[string]string{entry.File: entry.Vuln}),
		WithServerAddr(srv.Addr()),
	)
	if err != nil {
		t.Fatal(err)
	}
	defer sys.Close()

	res, err := entry.Exploit(sys.Kernel, 0)
	if err != nil || !res.Vulnerable {
		t.Fatalf("expected vulnerable kernel: %+v %v", res, err)
	}
	rep, err := sys.Apply(context.Background(), entry.CVE)
	if err != nil {
		t.Fatal(err)
	}
	if rep.Stages.SMMTotal() <= 0 {
		t.Error("no pause recorded")
	}
	res, err = entry.Exploit(sys.Kernel, 0)
	if err != nil {
		t.Fatal(err)
	}
	if res.Vulnerable {
		t.Error("Dirty COW still exploitable after live patch")
	}
}

func TestPublicAPIRegistry(t *testing.T) {
	if len(CVEList()) != 30 {
		t.Errorf("CVEList = %d entries", len(CVEList()))
	}
	if len(FigureCVEs()) != 6 {
		t.Errorf("FigureCVEs = %d entries", len(FigureCVEs()))
	}
	if _, ok := LookupCVE("CVE-0000-0000"); ok {
		t.Error("bogus CVE resolved")
	}
	tree, err := BaseKernelTree("3.14")
	if err != nil || len(tree.Files()) == 0 {
		t.Errorf("BaseKernelTree: %v", err)
	}
}

func TestPublicAPIWorkload(t *testing.T) {
	entry, _ := LookupCVE("CVE-2014-0196")
	srv, err := NewPatchServer(WithTreeProvider(TreeProviderFor(entry)))
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()
	srv.RegisterPatch(entry.SourcePatch())
	sys, err := New(
		WithVersion("4.4"),
		WithExtraFiles(map[string]string{entry.File: entry.Vuln}),
		WithServerAddr(srv.Addr()),
	)
	if err != nil {
		t.Fatal(err)
	}
	defer sys.Close()

	w := NewWorkload(sys, WorkloadMixed)
	if err := w.Start(); err != nil {
		t.Fatal(err)
	}
	if _, err := sys.Apply(context.Background(), entry.CVE); err != nil {
		t.Fatalf("apply under workload: %v", err)
	}
	stats := w.Stop()
	if stats.Ops == 0 || stats.Errors != 0 {
		t.Errorf("workload stats = %+v", stats)
	}
}

// TestRQ1UnderLoad mirrors the paper's "heavier active workloads
// during live patching" variant (§VI-B/§VI-C3) on a subset of the
// suite: patches land while every vCPU runs the mixed workload, and
// the exploits still flip.
func TestRQ1UnderLoad(t *testing.T) {
	if testing.Short() {
		t.Skip("under-load sweep skipped in -short mode")
	}
	for _, id := range []string{"CVE-2014-0196", "CVE-2016-5195", "CVE-2017-17053", "CVE-2014-3690"} {
		t.Run(id, func(t *testing.T) {
			entry, ok := LookupCVE(id)
			if !ok {
				t.Fatal("missing entry")
			}
			srv, err := NewPatchServer(WithTreeProvider(TreeProviderFor(entry)))
			if err != nil {
				t.Fatal(err)
			}
			defer srv.Close()
			srv.RegisterPatch(entry.SourcePatch())
			sys, err := New(
				WithVersion("4.4"),
				WithVCPUs(4),
				WithExtraFiles(map[string]string{entry.File: entry.Vuln}),
				WithServerAddr(srv.Addr()),
			)
			if err != nil {
				t.Fatal(err)
			}
			defer sys.Close()

			w := NewWorkload(sys, WorkloadMixed)
			if err := w.Start(); err != nil {
				t.Fatal(err)
			}
			if _, err := sys.Apply(context.Background(), entry.CVE); err != nil {
				t.Fatalf("apply under load: %v", err)
			}
			stats := w.Stop()
			if stats.Errors != 0 {
				t.Errorf("%d workload errors during live patching", stats.Errors)
			}
			res, err := entry.Exploit(sys.Kernel, 0)
			if err != nil {
				t.Fatal(err)
			}
			if res.Vulnerable {
				t.Error("patch under load ineffective")
			}
		})
	}
}

// TestFunctionalOptions checks that New assembles the same Options a
// struct-literal caller would, including merge semantics for repeated
// WithExtraFiles, and that the built system honours them.
func TestFunctionalOptions(t *testing.T) {
	entry, _ := LookupCVE("CVE-2014-0196")
	srv, err := NewPatchServer(WithTreeProvider(TreeProviderFor(entry)))
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()
	srv.RegisterPatch(entry.SourcePatch())

	sys, err := New(
		WithVersion("4.4"),
		WithVCPUs(2),
		WithExtraFiles(map[string]string{entry.File: entry.Vuln}),
		WithExtraFiles(map[string]string{"docs/readme.txt": "; notes"}),
		WithServerAddr(srv.Addr()),
		WithHashAlg(HashSDBM),
		WithActivenessCheck(true),
	)
	if err != nil {
		t.Fatal(err)
	}
	defer sys.Close()

	if got := sys.Machine.NumVCPUs(); got != 2 {
		t.Errorf("vCPUs = %d, want 2", got)
	}
	if _, err := sys.Apply(context.Background(), entry.CVE); err != nil {
		t.Fatalf("apply on New()-built system: %v", err)
	}
	res, err := entry.Exploit(sys.Kernel, 0)
	if err != nil || res.Vulnerable {
		t.Errorf("exploit after patch: %+v %v", res, err)
	}
}

// TestFunctionalOptionsDefaults: New with only a server address boots
// the default 4.4 kernel on the default vCPU count.
func TestFunctionalOptionsDefaults(t *testing.T) {
	srv, err := NewPatchServer(WithTreeProvider(TreeProviderFor()))
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()
	sys, err := New(WithServerAddr(srv.Addr()))
	if err != nil {
		t.Fatal(err)
	}
	defer sys.Close()
	if v := sys.Kernel.Config().Version; v != "4.4" {
		t.Errorf("default version = %q, want 4.4", v)
	}
	if got := sys.Machine.NumVCPUs(); got != 4 {
		t.Errorf("default vCPUs = %d, want 4", got)
	}
}

// TestPublicAPIApplyAll drives the batched pipeline through the facade:
// several CVEs, one SMI, typed option plumbing intact.
func TestPublicAPIApplyAll(t *testing.T) {
	ids := []string{"CVE-2014-0196", "CVE-2016-7916", "CVE-2016-2543"}
	entries := make([]*CVE, len(ids))
	files := make(map[string]string, len(ids))
	for i, id := range ids {
		e, ok := LookupCVE(id)
		if !ok {
			t.Fatalf("missing %s", id)
		}
		entries[i] = e
		files[e.File] = e.Vuln
	}
	srv, err := NewPatchServer(WithTreeProvider(TreeProviderFor(entries...)))
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()
	for _, e := range entries {
		srv.RegisterPatch(e.SourcePatch())
	}
	sys, err := New(WithExtraFiles(files), WithServerAddr(srv.Addr()))
	if err != nil {
		t.Fatal(err)
	}
	defer sys.Close()

	rep, err := sys.ApplyAll(context.Background(), ids,
		WithBatchSize(8), WithFetchWorkers(2))
	if err != nil {
		t.Fatal(err)
	}
	if len(rep.Failed) > 0 {
		t.Fatalf("failures: %v", rep.Failed)
	}
	if rep.SMIs != 1 {
		t.Errorf("SMIs = %d, want 1 for a single batch", rep.SMIs)
	}
	for _, e := range entries {
		res, err := e.Exploit(sys.Kernel, 0)
		if err != nil {
			t.Fatal(err)
		}
		if res.Vulnerable {
			t.Errorf("%s still exploitable after ApplyAll", e.CVE)
		}
	}
}
