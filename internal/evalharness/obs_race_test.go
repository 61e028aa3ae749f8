package evalharness

import (
	"context"
	"sync"
	"sync/atomic"
	"testing"

	"kshot/internal/cvebench"
	"kshot/internal/kcrypto"
	"kshot/internal/obs"
	"kshot/internal/timing"
)

// TestObservabilityUnderConcurrency hammers one shared Hooks from
// several concurrent deployments with async fetching and a deliberately
// tiny trace ring, then checks the accounting holds exactly: the ring's
// drop counter equals emitted minus retained, and the downtime
// histogram saw precisely one sample per applied patch. Run under
// -race this also proves the tracer, registry, and every hook site are
// data-race free.
func TestObservabilityUnderConcurrency(t *testing.T) {
	const replicas = 2 // each wave deployed this many times, all concurrent

	wall := timing.NewFakeWall()
	hooks := obs.NewHooks(64, wall) // far below the event volume, forcing wraps
	waves := cvebench.ConflictFreeWaves(cvebench.All())

	var (
		wg      sync.WaitGroup
		applied atomic.Int64
		mu      sync.Mutex
		errs    []error
	)
	for r := 0; r < replicas; r++ {
		for wi := range waves {
			wave := waves[wi]
			wg.Add(1)
			go func() {
				defer wg.Done()
				cves := make([]string, len(wave))
				for i, e := range wave {
					cves[i] = e.CVE
				}
				d, err := NewDeployment("4.4", 2, kcrypto.HashSHA256, wave...)
				if err != nil {
					mu.Lock()
					errs = append(errs, err)
					mu.Unlock()
					return
				}
				defer d.Close()
				d.System.SetObserver(hooks)
				rep, err := d.System.ApplyAll(context.Background(), cves)
				if err != nil {
					mu.Lock()
					errs = append(errs, err)
					mu.Unlock()
					return
				}
				if len(rep.Failed) > 0 {
					mu.Lock()
					for _, ferr := range rep.Failed {
						errs = append(errs, ferr)
					}
					mu.Unlock()
					return
				}
				applied.Add(int64(len(rep.Reports)))
			}()
		}
	}
	wg.Wait()
	for _, err := range errs {
		t.Fatal(err)
	}

	wantApplied := applied.Load()
	if want := int64(replicas * len(cvebench.All())); wantApplied != want {
		t.Fatalf("applied %d patches, want %d", wantApplied, want)
	}

	// Ring accounting: the snapshot is taken under one critical section,
	// so the invariant must be exact, not approximate.
	snap := hooks.Tracer.Snapshot()
	if snap.Dropped != snap.Emitted-uint64(len(snap.Events)) {
		t.Errorf("ring invariant broken: dropped=%d emitted=%d retained=%d",
			snap.Dropped, snap.Emitted, len(snap.Events))
	}
	if snap.Emitted <= uint64(snap.Capacity) {
		t.Errorf("expected the ring to wrap: emitted=%d capacity=%d", snap.Emitted, snap.Capacity)
	}
	if snap.Dropped == 0 {
		t.Error("expected dropped events with a 64-slot ring")
	}
	if len(snap.Events) != snap.Capacity {
		t.Errorf("retained %d events, want full ring of %d", len(snap.Events), snap.Capacity)
	}

	// Metric accounting: one downtime sample and one applied count per
	// patched CVE, no double counting across concurrent deployments.
	if got := hooks.Metrics.Counter(obs.CtrApplied).Value(); got != wantApplied {
		t.Errorf("%s = %d, want %d", obs.CtrApplied, got, wantApplied)
	}
	var downtime *obs.HistSnap
	msnap := hooks.Metrics.Snapshot()
	for i := range msnap.Hists {
		if msnap.Hists[i].Name == obs.HistDowntime {
			downtime = &msnap.Hists[i]
			break
		}
	}
	if downtime == nil {
		t.Fatalf("histogram %s never observed", obs.HistDowntime)
	}
	if downtime.Count != uint64(wantApplied) {
		t.Errorf("%s count = %d, want %d (one sample per applied patch)",
			obs.HistDowntime, downtime.Count, wantApplied)
	}
	if downtime.Sum <= 0 {
		t.Errorf("%s sum = %v, want > 0", obs.HistDowntime, downtime.Sum)
	}
}
