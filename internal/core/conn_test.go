package core

import (
	"context"
	"errors"
	"math/rand"
	"testing"
	"time"

	"kshot/internal/cvebench"
	"kshot/internal/faultinject"
	"kshot/internal/obs"
	"kshot/internal/patchserver"
)

// newConnRig boots a 2-vCPU 4.4 System for batchCVEs against its own
// patch server, and returns a count of the connections the server has
// accepted.
func newConnRig(tb testing.TB, srvOpts ...patchserver.ServerOption) (*System, *patchserver.Server, func() int64) {
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

// applyAllCycle applies batchCVEs over two fetch workers and two
// batches, then rolls every patch back.
func applyAllCycle(tb testing.TB, sys *System) {
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

// TestApplyAllReusesAttachedConnection: every fetch of an ApplyAll goes
// over the client Attach dialed. A one-batch call, a two-worker call
// over two batches and a three-worker call over three batches leave the
// server with one accepted connection, and a dial fault armed before the
// last call never fires because nothing dials.
func TestApplyAllReusesAttachedConnection(t *testing.T) {
	sys, _, accepted := newConnRig(t)
	apply := func(cves []string, opts ...ApplyOption) {
		t.Helper()
		rep, err := sys.ApplyAll(context.Background(), cves, opts...)
		if err != nil {
			t.Fatalf("ApplyAll(%v): %v", cves, err)
		}
		if len(rep.Failed) > 0 {
			t.Fatalf("ApplyAll(%v) failed %v", cves, rep.Failed)
		}
	}

	if err := sys.Attach(context.Background()); err != nil {
		t.Fatal(err)
	}
	apply(batchCVEs[:1])
	if n := accepted(); n != 1 {
		t.Errorf("after Attach and a one-batch ApplyAll: %d connections accepted, want 1", n)
	}
	apply(batchCVEs[1:3], WithBatchSize(1), WithFetchWorkers(2))
	if n := accepted(); n != 1 {
		t.Errorf("after a two-worker, two-batch ApplyAll: %d connections accepted, want 1", n)
	}
	rollbackAll(t, sys)
	fi := faultinject.New(faultinject.Exact(
		faultinject.Fault{Point: faultinject.DialError, Call: 0}))
	sys.SetObserver(&obs.Hooks{Faults: fi})
	apply(batchCVEs, WithBatchSize(2), WithFetchWorkers(3))
	if fi.Fired() != 0 {
		t.Errorf("injected DialError fired %d times, want 0 (no fetch dials)", fi.Fired())
	}
	if n := accepted(); n != 1 {
		t.Errorf("after a three-worker ApplyAll: %d connections accepted, want 1", n)
	}
	if got := sys.Applied(); len(got) != len(batchCVEs) {
		t.Errorf("Applied() = %v", got)
	}
}

// TestApplyAllPoolsFetchConnections: a System holds one server
// connection for its whole life. Twenty-one two-worker, two-batch cycles
// (fetching ahead, acknowledging, rolling back) make the server accept
// exactly one connection, which it still serves afterwards.
func TestApplyAllPoolsFetchConnections(t *testing.T) {
	sys, srv, accepted := newConnRig(t)
	applyAllCycle(t, sys)
	if n := accepted(); n != 1 {
		t.Errorf("after one two-worker cycle: %d connections accepted, want 1", n)
	}
	for range 20 {
		applyAllCycle(t, sys)
	}
	if n := accepted(); n != 1 {
		t.Errorf("21 two-worker cycles: %d connections accepted, want 1", n)
	}
	waitLive(t, srv, 1)
}

// TestApplyAllPoolClosedBySystemClose: System.Close closes the one
// connection a System's fetches ran over, so the server ends up serving
// no connection of the closed System.
func TestApplyAllPoolClosedBySystemClose(t *testing.T) {
	sys, srv, _ := newConnRig(t)
	applyAllCycle(t, sys)
	waitLive(t, srv, 1)
	sys.Close()
	waitLive(t, srv, 0)
}

// TestApplyAllAfterIdleReap lets the server reap every connection of a
// System between two ApplyAll calls. A client keeps the one connection
// it dialed, so the second call fails promptly: every CVE lands in
// Failed as an ErrFetch, no SMI runs, and nothing redials the server.
func TestApplyAllAfterIdleReap(t *testing.T) {
	sys, srv, accepted := newConnRig(t, patchserver.WithIdleTimeout(100*time.Millisecond))
	applyAllCycle(t, sys)
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
// batchCVEs over two fetch workers: the pipelined fetches and the status
// acknowledgement of the batch path.
func BenchmarkApplyAllCycle(b *testing.B) {
	sys, _, _ := newConnRig(b)
	applyAllCycle(b, sys) // attach and fill the build cache untimed
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		applyAllCycle(b, sys)
	}
}
