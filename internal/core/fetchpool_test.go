package core

import (
	"context"
	"errors"
	"math/rand"
	"testing"
	"time"

	"kshot/internal/cvebench"
	"kshot/internal/obs"
	"kshot/internal/patchserver"
)

// newFetchPoolRig boots a 2-vCPU 4.4 System for batchCVEs against its
// own patch server, and returns a count of the connections the server
// has accepted.
func newFetchPoolRig(tb testing.TB, srvOpts ...patchserver.ServerOption) (*System, *patchserver.Server, func() int64) {
	tb.Helper()
	entries := make([]*cvebench.Entry, len(batchCVEs))
	extra := make(map[string]string, len(batchCVEs))
	for i, id := range batchCVEs {
		e, ok := cvebench.Get(id)
		if !ok {
			tb.Fatalf("unknown CVE %s", id)
		}
		entries[i] = e
		extra[e.File] = e.Vuln
	}
	hooks := obs.NewHooks(16, nil)
	srv, err := patchserver.New(append([]patchserver.ServerOption{
		patchserver.WithTreeProvider(cvebench.TreeProviderFor(entries...)),
		patchserver.WithServerObserver(hooks)}, srvOpts...)...)
	if err != nil {
		tb.Fatal(err)
	}
	tb.Cleanup(srv.Close)
	for _, e := range entries {
		srv.RegisterPatch(e.SourcePatch())
	}
	sys, err := NewSystemCtx(context.Background(), Options{
		Version:    "4.4",
		NumVCPUs:   2,
		ExtraFiles: extra,
		ServerAddr: srv.Addr(),
		Rand:       &detRand{r: rand.New(rand.NewSource(5))},
	})
	if err != nil {
		tb.Fatal(err)
	}
	tb.Cleanup(sys.Close)
	accepted := func() int64 { return hooks.Metrics.Counter(obs.CtrConnAccepted).Value() }
	return sys, srv, accepted
}

// fetchPoolCycle applies batchCVEs over two fetch workers and two
// batches, then rolls every patch back.
func fetchPoolCycle(tb testing.TB, sys *System) {
	tb.Helper()
	rep, err := sys.ApplyAll(context.Background(), batchCVEs, WithBatchSize(3), WithFetchWorkers(2))
	if err != nil {
		tb.Fatalf("ApplyAll: %v", err)
	}
	if len(rep.Failed) > 0 {
		tb.Fatalf("ApplyAll failed %v", rep.Failed)
	}
	rollbackAll(tb, sys)
}

func rollbackAll(tb testing.TB, sys *System) {
	tb.Helper()
	applied := sys.Applied()
	for i := len(applied) - 1; i >= 0; i-- {
		if _, err := sys.Rollback(context.Background(), applied[i]); err != nil {
			tb.Fatalf("rollback %s: %v", applied[i], err)
		}
	}
}

// waitLive polls until the server serves exactly want connections.
func waitLive(t *testing.T, srv *patchserver.Server, want int) {
	t.Helper()
	deadline := time.Now().Add(5 * time.Second)
	for srv.Live() != want {
		if time.Now().After(deadline) {
			t.Fatalf("server serves %d connections, want %d", srv.Live(), want)
		}
		time.Sleep(5 * time.Millisecond)
	}
}

// TestApplyAllPoolsFetchConnections checks that once a System has
// dialed its extra fetch connection, repeated ApplyAll calls reuse it
// and the server accepts nothing new.
func TestApplyAllPoolsFetchConnections(t *testing.T) {
	sys, _, accepted := newFetchPoolRig(t)
	fetchPoolCycle(t, sys)
	warm := accepted()
	if warm != 2 {
		t.Errorf("after one two-worker cycle: %d connections accepted, want 2", warm)
	}
	for range 20 {
		fetchPoolCycle(t, sys)
	}
	if n := accepted() - warm; n != 0 {
		t.Errorf("20 warmed cycles accepted %d new connections, want 0", n)
	}
}

// TestApplyAllPoolClosedBySystemClose checks that System.Close closes
// the idle fetch pool as well as the attached client: the server ends
// up serving no connection of the closed System.
func TestApplyAllPoolClosedBySystemClose(t *testing.T) {
	sys, srv, _ := newFetchPoolRig(t)
	fetchPoolCycle(t, sys)
	waitLive(t, srv, 2)
	sys.Close()
	waitLive(t, srv, 0)
}

// TestApplyAllAfterIdleReap lets the server reap every connection of a
// System between two ApplyAll calls. A client keeps the one connection
// it dialed, so the second call fails promptly: every CVE lands in
// Failed as an ErrFetch, no SMI runs, and nothing redials the server.
func TestApplyAllAfterIdleReap(t *testing.T) {
	sys, srv, accepted := newFetchPoolRig(t, patchserver.WithIdleTimeout(100*time.Millisecond))
	fetchPoolCycle(t, sys)
	waitLive(t, srv, 0)
	before := accepted()

	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	rep, err := sys.ApplyAll(ctx, batchCVEs, WithBatchSize(3), WithFetchWorkers(2))
	if ctx.Err() != nil {
		t.Fatalf("ApplyAll on reaped connections hung until the deadline: %v", err)
	}
	if len(rep.Reports) != 0 || len(rep.Failed) != len(batchCVEs) {
		t.Fatalf("ApplyAll on reaped connections: %d applied, %d failed, want 0 and %d (err %v)",
			len(rep.Reports), len(rep.Failed), len(batchCVEs), err)
	}
	for cve, ferr := range rep.Failed {
		if !errors.Is(ferr, ErrFetch) {
			t.Errorf("%s: %v, want ErrFetch", cve, ferr)
		}
	}
	if rep.SMIs != 0 {
		t.Errorf("%d SMIs on reaped connections, want 0", rep.SMIs)
	}
	if n := accepted() - before; n != 0 {
		t.Errorf("server accepted %d new connections, want 0", n)
	}
}

// BenchmarkApplyAllCycle measures one warm apply-and-rollback cycle of
// batchCVEs over two fetch workers: the pooled connections, pipelined
// fetches and status reports of the batch path.
func BenchmarkApplyAllCycle(b *testing.B) {
	sys, _, _ := newFetchPoolRig(b)
	fetchPoolCycle(b, sys) // attach, dial the extra fetcher and fill the build cache untimed
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		fetchPoolCycle(b, sys)
	}
}
