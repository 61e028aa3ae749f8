package core

import (
	"context"
	"errors"
	"strings"
	"sync"
	"testing"
	"time"

	"kshot/internal/faultinject"
	"kshot/internal/introspect"
	"kshot/internal/kcrypto"
	"kshot/internal/mem"
	"kshot/internal/obs"
	"kshot/internal/sgxprep"
	"kshot/internal/smmpatch"
	"kshot/internal/timing"
)

// faultHooks builds a handle with its own metrics and a fake wall
// clock, carrying set.
func faultHooks(set *faultinject.Set) *obs.Hooks {
	return &obs.Hooks{Metrics: obs.NewMetrics(), Faults: set, Wall: timing.NewFakeWall()}
}

// faultCount reads the fired-fault counter of pt in h.
func faultCount(h *obs.Hooks, pt faultinject.Point) int64 {
	return h.Metrics.Counter(obs.FaultPrefix + string(pt)).Value()
}

// Two deployments sharing one fault set each count the faults that
// fire in their own layers, in their own hooks — whatever the other
// deployment installs afterwards.
func TestFaultCountsStayWithTheirSystem(t *testing.T) {
	cases := []struct {
		name string
		// after runs once both deployments are wired, before A's SMI.
		after func(a, b *System)
	}{
		{name: "both wired", after: func(a, b *System) {}},
		{name: "B unwired", after: func(a, b *System) { b.SetObserver(nil) }},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			a := newDeployment(t, "4.4", kcrypto.HashSHA256).System
			b := newDeployment(t, "4.4", kcrypto.HashSHA256).System
			set := faultinject.New(faultinject.Exact(faultinject.Fault{Point: faultinject.SMMRefuse, Call: 0}))
			ha, hb := faultHooks(set), faultHooks(set)
			a.SetObserver(ha)
			b.SetObserver(hb)
			tc.after(a, b)

			if err := a.SMM.Trigger(smmpatch.CmdKeyExchange, 0); !errors.Is(err, faultinject.ErrInjected) {
				t.Fatalf("A's SMI: %v, want an injected refusal", err)
			}
			if got := faultCount(ha, faultinject.SMMRefuse); got != 1 {
				t.Errorf("A's hooks count %d refusals, want 1", got)
			}
			if got := faultCount(hb, faultinject.SMMRefuse); got != 0 {
				t.Errorf("B's hooks count %d refusals, want 0", got)
			}
		})
	}
}

// stageMemW makes one helper write into mem_W.
func stageMemW(t *testing.T, d *testDeployment) {
	_ = d.System.Machine.Mem.Write(mem.PrivKernel, d.System.Kernel.Res.WBase(), []byte{1, 2, 3, 4})
}

// applyOne runs one CVE through the serial Apply path.
func applyOne(t *testing.T, d *testDeployment) {
	_, _ = d.System.Apply(context.Background(), d.Entries[0].CVE)
}

// applyBatch runs both CVEs through ApplyAll as one batch.
func applyBatch(t *testing.T, d *testDeployment) {
	if _, err := d.System.ApplyAll(context.Background(), []string{d.Entries[0].CVE, d.Entries[1].CVE},
		WithBatchSize(2), WithFetchWorkers(1)); err != nil && !errors.Is(err, context.Canceled) {
		t.Fatalf("ApplyAll: %v", err)
	}
}

// fetchOne fetches one CVE over the attached client.
func fetchOne(t *testing.T, d *testDeployment) {
	if _, err := d.System.client.FetchPatches(context.Background(), []string{d.Entries[0].CVE}); err != nil {
		t.Fatalf("FetchPatches: %v", err)
	}
}

// Every fault point counts its fired fault once, as obs.FaultPrefix +
// point, in the hooks of the layer it fired in: the System's for the
// target-side points, the server's for the server-side ones.
func TestFaultPointCounts(t *testing.T) {
	type row struct {
		server     bool // the point lives in the patch server
		unattached bool // drive runs before the System attaches
		drive      func(t *testing.T, d *testDeployment)
	}
	rows := map[faultinject.Point]row{
		faultinject.MemWCorrupt:   {drive: stageMemW},
		faultinject.MemWFault:     {drive: stageMemW},
		faultinject.SMMRefuse:     {drive: func(t *testing.T, d *testDeployment) { _ = d.System.SMM.Trigger(smmpatch.CmdKeyExchange, 0) }},
		faultinject.SMMBatchAbort: {drive: applyOne},
		faultinject.SGXECallFail:  {drive: applyOne},
		faultinject.SGXDestroy:    {drive: applyOne},
		faultinject.FetchError:    {drive: fetchOne},
		faultinject.FetchTruncate: {drive: fetchOne},
		faultinject.FetchDelay:    {drive: fetchOne},
		faultinject.DialError: {unattached: true, drive: func(t *testing.T, d *testDeployment) {
			if err := d.System.Attach(context.Background()); !errors.Is(err, faultinject.ErrInjected) {
				t.Fatalf("Attach: %v, want the injected dial error", err)
			}
		}},
		faultinject.AcceptStall: {server: true, unattached: true, drive: func(t *testing.T, d *testDeployment) {
			// The hello round trip returns only after the server
			// accepted the connection.
			if err := d.System.Attach(context.Background()); err != nil {
				t.Fatal(err)
			}
		}},
		faultinject.BuildCacheBypass: {server: true, drive: fetchOne},
		faultinject.PipelineStall:    {drive: applyBatch},
		faultinject.PipelineCancel:   {drive: applyBatch},
	}
	for _, pt := range faultinject.Points() {
		r, ok := rows[pt]
		if !ok {
			t.Errorf("%s: no row drives this fault point", pt)
			continue
		}
		t.Run(string(pt), func(t *testing.T) {
			d := newDeployment(t, "4.4", kcrypto.HashSHA256, batchCVEs[:2]...)
			if !r.unattached {
				if err := d.System.Attach(context.Background()); err != nil {
					t.Fatal(err)
				}
			}
			set := faultinject.New(faultinject.Exact(faultinject.Fault{Point: pt, Call: 0}))
			h := faultHooks(set)
			if r.server {
				d.Server.SetObserver(h)
			} else {
				d.System.SetObserver(h)
			}
			r.drive(t, d)
			if set.Fired() != 1 {
				t.Fatalf("fired %d faults, want 1 (%d passes)", set.Fired(), set.Calls(pt))
			}
			if got := faultCount(h, pt); got != 1 {
				t.Errorf("%s%s = %d, want 1", obs.FaultPrefix, pt, got)
			}
		})
	}
}

// The System's handle reaches every layer whatever order its pieces
// are installed in: a fault set installed with SetObserver fires and is
// counted in that handle, and introspection keeps flowing after
// SetObserver(nil).
func TestWiringOrder(t *testing.T) {
	cases := [][]string{
		{"observe", "introspect", "attach"},
		{"observe", "attach", "introspect"},
		{"introspect", "observe", "attach"},
		{"introspect", "attach", "observe"},
		{"attach", "observe", "introspect"},
		{"attach", "introspect", "observe"},
		{"observe", "introspect", "attach", "nil"},
		{"introspect", "attach", "observe", "nil"},
		{"observe", "nil", "attach", "introspect", "observe"},
	}
	for _, steps := range cases {
		t.Run(strings.Join(steps, ","), func(t *testing.T) {
			ctx := context.Background()
			d := newDeployment(t, "4.4", kcrypto.HashSHA256, batchCVEs[:1]...)
			s := d.System
			cve := d.Entries[0].CVE

			set := faultinject.New(faultinject.Exact(
				faultinject.Fault{Point: faultinject.FetchError, Call: 0},
				faultinject.Fault{Point: faultinject.SGXECallFail, Call: 0},
			))
			h := faultHooks(set)
			observed := false
			for _, step := range steps {
				switch step {
				case "observe":
					s.SetObserver(h)
					observed = true
				case "nil":
					s.SetObserver(nil)
					observed = false
				case "introspect":
					if err := s.EnableIntrospection(introspect.Config{}); err != nil {
						t.Fatal(err)
					}
				case "attach":
					if err := s.Attach(ctx); err != nil {
						t.Fatal(err)
					}
				}
			}
			if h.Introspect != nil {
				t.Fatal("the System modified the caller's hooks")
			}

			// One fetch and one ECALL: each fails and is counted while h
			// is installed.
			_, err := s.enclave.ECall(sgxprep.FnPrepare, nil)
			if injected := errors.Is(err, faultinject.ErrInjected); injected != observed {
				t.Errorf("ECALL error %v, want injected=%v", err, observed)
			}
			rs, err := s.client.FetchPatches(ctx, []string{cve})
			if err != nil {
				t.Fatal(err)
			}
			if injected := errors.Is(rs[0].Err, faultinject.ErrInjected); injected != observed {
				t.Errorf("fetch error %v, want injected=%v", rs[0].Err, observed)
			}
			want := int64(0)
			if observed {
				want = 1
			}
			for _, pt := range []faultinject.Point{faultinject.FetchError, faultinject.SGXECallFail} {
				if got := faultCount(h, pt); got != want {
					t.Errorf("%s%s = %d, want %d", obs.FaultPrefix, pt, got, want)
				}
			}

			// Introspection sees the next SMI whatever is installed.
			ch := s.IntrospectionEvents()
			ch.Drain(nil)
			if err := s.SMM.Trigger(smmpatch.CmdKeyExchange, 0); err != nil {
				t.Fatal(err)
			}
			kinds := map[introspect.Kind]bool{}
			for _, ev := range ch.Drain(nil) {
				kinds[ev.Kind] = true
			}
			if !kinds[introspect.KindSMIEnter] || !kinds[introspect.KindSMIExit] {
				t.Errorf("SMI after the steps produced events %v, want SMI enter and exit", kinds)
			}
		})
	}
}

// Handle swaps race with a running guest, background sweeps and SMIs:
// each layer publishes its handle so that readers see either the old
// or the new one. Run under -race.
func TestObserverSwapWhileGuestRuns(t *testing.T) {
	d := newDeployment(t, "4.4", kcrypto.HashSHA256)
	s := d.System
	if err := s.EnableIntrospection(introspect.Config{SweepEvery: time.Millisecond}); err != nil {
		t.Fatal(err)
	}
	stop := make(chan struct{})
	var wg sync.WaitGroup
	for v := 0; v < s.Machine.NumVCPUs(); v++ {
		wg.Add(1)
		go func(vcpu int) {
			defer wg.Done()
			for i := uint64(0); ; i++ {
				select {
				case <-stop:
					return
				default:
				}
				if _, err := s.Kernel.Call(vcpu, "sys_compute", i, 3); err != nil {
					t.Errorf("workload on vcpu %d: %v", vcpu, err)
					return
				}
			}
		}(v)
	}
	h := faultHooks(faultinject.New(faultinject.Exact()))
	for i := 0; i < 50; i++ {
		if i%2 == 0 {
			s.SetObserver(h)
		} else {
			s.SetObserver(nil)
		}
		if err := s.SMM.Trigger(smmpatch.CmdKeyExchange, 0); err != nil {
			t.Fatal(err)
		}
	}
	close(stop)
	wg.Wait()
	if got := h.Metrics.Counter(obs.CtrSMIEntries).Value(); got != 25 {
		t.Errorf("%s = %d, want 25 (the SMIs raised while h was installed)", obs.CtrSMIEntries, got)
	}
	if st := s.IntrospectionEvents().Stats(); st.Emitted == 0 {
		t.Error("no introspection events while handles were swapped")
	}
}
