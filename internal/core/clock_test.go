package core

import (
	"context"
	"math/rand"
	"sync"
	"testing"
	"time"

	"kshot/internal/cvebench"
	"kshot/internal/faultinject"
	"kshot/internal/introspect"
	"kshot/internal/mem"
	"kshot/internal/obs"
	"kshot/internal/patchserver"
	"kshot/internal/timing"
)

// TestHandleClockOneTimeline: a System provisioned with introspection
// takes its wall clock from the installed handle like every other
// layer, so trace spans, introspection events, the tamper verdict and
// an injected fetch delay all run on the handle's fake clock and none
// on the host's.
func TestHandleClockOneTimeline(t *testing.T) {
	e, ok := cvebench.Get("CVE-2014-0196")
	if !ok {
		t.Fatal("unknown CVE")
	}
	srv, err := patchserver.New(patchserver.WithTreeProvider(cvebench.TreeProviderFor(e)))
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(srv.Close)
	srv.RegisterPatch(e.SourcePatch())
	sys, err := NewSystemCtx(context.Background(), Options{
		Version:       "4.4",
		NumVCPUs:      2,
		ExtraFiles:    map[string]string{e.File: e.Vuln},
		ServerAddr:    srv.Addr(),
		Rand:          &detRand{r: rand.New(rand.NewSource(42))},
		Introspection: &introspect.Config{},
	})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(sys.Close)

	fw := timing.NewFakeWall()
	start := fw.Now()
	const delay, lag = 7 * time.Millisecond, 5 * time.Millisecond
	set := faultinject.New(faultinject.Exact(faultinject.Fault{Point: faultinject.FetchDelay, Delay: delay}))
	hooks := &obs.Hooks{Tracer: obs.NewTracer(256), Faults: set, Wall: fw}
	sys.SetObserver(hooks)
	var (
		mu     sync.Mutex
		events []introspect.Event
	)
	sys.IntrospectionEvents().SetTap(func(ev introspect.Event) {
		mu.Lock()
		events = append(events, ev)
		mu.Unlock()
	})

	rep, err := sys.ApplyAll(context.Background(), []string{e.CVE})
	if err != nil || len(rep.Failed) != 0 {
		t.Fatalf("ApplyAll: %v, failed %v", err, rep.Failed)
	}
	if set.Fired() != 1 || fw.Slept() != delay {
		t.Fatalf("fetch delay fired %d times, fake wall slept %v; want 1 and %v", set.Fired(), fw.Slept(), delay)
	}

	// Tamper with kernel text, let lag pass on the handle's clock, sweep.
	addr, err := sys.Kernel.FuncAddr(e.Functions[0])
	if err != nil {
		t.Fatal(err)
	}
	tamperAt := fw.Now()
	if err := sys.Machine.Mem.Write(mem.PrivKernel, addr, []byte{0xCC}); err != nil {
		t.Fatal(err)
	}
	fw.Sleep(context.Background(), lag)
	var tamper *introspect.Verdict
	for _, v := range sys.Introspection().Sweep() {
		if v.Kind == introspect.TamperDetected {
			tamper = &v
		}
	}
	if tamper == nil {
		t.Fatal("sweep raised no tamper verdict")
	}
	if !tamper.At.Equal(fw.Now()) || tamper.Latency != lag {
		t.Errorf("verdict At %v latency %v, want %v and %v on the fake wall", tamper.At, tamper.Latency, fw.Now(), lag)
	}
	if fw.Slept() != delay+lag {
		t.Errorf("fake wall slept %v, want %v", fw.Slept(), delay+lag)
	}

	mu.Lock()
	defer mu.Unlock()
	if len(events) == 0 {
		t.Fatal("no introspection events")
	}
	for _, ev := range events {
		if ev.At.Before(start) || ev.At.After(fw.Now()) {
			t.Fatalf("event %+v stamped outside the fake wall's [%v, %v]", ev, start, fw.Now())
		}
		if ev.Kind == introspect.KindExecWrite && ev.Addr == addr && !ev.At.Equal(tamperAt) {
			t.Errorf("tamper event At %v, want %v", ev.At, tamperAt)
		}
	}
	spans := hooks.Tracer.Snapshot().Events
	if len(spans) == 0 {
		t.Fatal("no trace events")
	}
	for _, ev := range spans {
		if ev.At.Before(start) || ev.At.After(fw.Now()) {
			t.Fatalf("trace event %v stamped outside the fake wall", ev)
		}
	}
}
