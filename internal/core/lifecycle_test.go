package core

import (
	"context"
	"runtime"
	"testing"

	"kshot/internal/cvebench"
	"kshot/internal/patchserver"
)

// lifecycleCVEs is the two-CVE batch of one rollout target.
var lifecycleCVEs = []string{"CVE-2014-0196", "CVE-2016-7916"}

// lifecycleOptions starts a patch server for lifecycleCVEs and returns
// target options forking from a fresh template cache.
func lifecycleOptions(tb testing.TB) Options {
	tb.Helper()
	var entries []*cvebench.Entry
	extra := map[string]string{}
	for _, id := range lifecycleCVEs {
		e, ok := cvebench.Get(id)
		if !ok {
			tb.Fatalf("unknown CVE %s", id)
		}
		entries = append(entries, e)
		extra[e.File] = e.Vuln
	}
	srv, err := patchserver.New(patchserver.WithTreeProvider(cvebench.TreeProviderFor(entries...)))
	if err != nil {
		tb.Fatal(err)
	}
	tb.Cleanup(srv.Close)
	for _, e := range entries {
		srv.RegisterPatch(e.SourcePatch())
	}
	cache := NewTemplateCache()
	tb.Cleanup(cache.Close)
	return Options{
		Version:       "4.4",
		ExtraFiles:    extra,
		ServerAddr:    srv.Addr(),
		TemplateCache: cache,
	}
}

// runLifecycle takes one target through its whole life: fork, attach,
// two-CVE ApplyAll, close.
func runLifecycle(tb testing.TB, opts Options) {
	ctx := context.Background()
	sys, err := NewSystemCtx(ctx, opts)
	if err != nil {
		tb.Fatal(err)
	}
	defer sys.Close()
	if err := sys.Attach(ctx); err != nil {
		tb.Fatal(err)
	}
	rep, err := sys.ApplyAll(ctx, lifecycleCVEs)
	if err != nil {
		tb.Fatal(err)
	}
	if len(rep.Failed) > 0 {
		tb.Fatalf("ApplyAll failed %v", rep.Failed)
	}
}

// BenchmarkForkLifecycle measures one fleet target's life on a warm
// template cache and build cache: fork, attach, two-CVE ApplyAll,
// close. B/op is the host memory a target churns; a closed fork's
// leaves and pages go back to their pools for the next one.
func BenchmarkForkLifecycle(b *testing.B) {
	opts := lifecycleOptions(b)
	runLifecycle(b, opts) // boot the template and build both patches untimed
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		runLifecycle(b, opts)
	}
}

// TestForkLifecycleAllocs guards the per-target allocation budget. A
// closed fork recycles the leaves and 4 KiB pages it owns alone and
// its server connection's frame reader, and its two patches cross each
// trust boundary without extra copies, so a lifecycle churns about
// 41 KB. If Release stopped pooling leaves it would churn about 53 KB,
// and about 70 KB if it stopped pooling pages; the 47 KB limit sits
// between the working figure and both failures. The race detector
// drops a quarter of the pools' puts, so the guard runs without it.
func TestForkLifecycleAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("the race detector drops pool puts at random")
	}
	if testing.Short() {
		t.Skip("allocation guard skipped in -short mode")
	}
	const (
		warm   = 20
		rounds = 200
		limit  = 47 << 10
	)
	opts := lifecycleOptions(t)
	for i := 0; i < warm; i++ {
		runLifecycle(t, opts)
	}
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	for i := 0; i < rounds; i++ {
		runLifecycle(t, opts)
	}
	runtime.ReadMemStats(&after)
	per := (after.TotalAlloc - before.TotalAlloc) / rounds
	t.Logf("%d bytes allocated per fork lifecycle", per)
	if per > limit {
		t.Errorf("fork lifecycle allocates %d bytes, limit %d: is a closed fork's memory released?", per, limit)
	}
}
