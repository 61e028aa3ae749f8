package pipeline

import (
	"context"
	"errors"
	"testing"
	"time"

	"kshot/internal/faultinject"
	"kshot/internal/obs"
	"kshot/internal/timing"
)

func retryableRefused(err error) bool { return errors.Is(err, errRefused) }

// Regression test: a cancelled context must interrupt the retry
// backoff sleep immediately. With a 30s backoff, a run that waits the
// sleep out would blow the test timeout; a correct one returns within
// milliseconds of the cancel.
func TestRetryBackoffHonorsCancellation(t *testing.T) {
	b := newFakeBackend()
	b.refuse["CVE-2020-0000"] = 10 // refused on every delivery

	ctx, cancel := context.WithCancel(context.Background())
	go func() {
		time.Sleep(50 * time.Millisecond)
		cancel()
	}()

	start := time.Now()
	res, err := Run(ctx, b, cveList(1), Config{
		BatchSize:  4,
		MaxRetries: 3,
		Backoff:    30 * time.Second,
		Retryable:  retryableRefused,
	})
	if elapsed := time.Since(start); elapsed > 5*time.Second {
		t.Fatalf("Run took %v; backoff ignored cancellation", elapsed)
	}
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("Run error = %v, want context.Canceled", err)
	}
	if got := res.Members[0].Err; !errors.Is(got, context.Canceled) {
		t.Fatalf("member error = %v, want context.Canceled", got)
	}
}

// With an injected fake clock, retry backoff is deterministic and
// instant: the fake records exactly the doubling schedule without the
// test ever touching the host clock.
func TestRetryBackoffUsesInjectedClock(t *testing.T) {
	b := newFakeBackend()
	b.refuse["CVE-2020-0000"] = 2
	fake := timing.NewFakeWall()

	res, err := Run(context.Background(), b, cveList(1), Config{
		BatchSize:  4,
		MaxRetries: 3,
		Backoff:    200 * time.Millisecond,
		Retryable:  retryableRefused,
		Obs:        &obs.Hooks{Wall: fake},
	})
	if err != nil {
		t.Fatalf("Run: %v", err)
	}
	if res.Members[0].Err != nil {
		t.Fatalf("member failed: %v", res.Members[0].Err)
	}
	if res.Retries != 2 {
		t.Fatalf("retries = %d, want 2", res.Retries)
	}
	if want := 200*time.Millisecond + 400*time.Millisecond; fake.Slept() != want {
		t.Fatalf("fake clock slept %v, want %v (200ms then doubled)", fake.Slept(), want)
	}
}

// An injected cancellation at the very first stage boundary stops the
// run before any delivery.
func TestInjectedCancelBeforeFirstDelivery(t *testing.T) {
	b := newFakeBackend()
	fi := faultinject.New(faultinject.Exact(
		faultinject.Fault{Point: faultinject.PipelineCancel, Call: 0},
	))
	res, err := Run(context.Background(), b, cveList(8), Config{BatchSize: 4, Obs: &obs.Hooks{Faults: fi}})
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("Run error = %v, want context.Canceled", err)
	}
	if len(b.applied) != 0 {
		t.Fatalf("applied %v before cancellation boundary", b.applied)
	}
	for i, m := range res.Members {
		if !errors.Is(m.Err, context.Canceled) {
			t.Fatalf("member %d error = %v, want context.Canceled", i, m.Err)
		}
	}
}

// An injected cancellation after the first batch's delivery leaves the
// applied members applied and marks the rest with the context error —
// the pipeline's documented cancellation contract, now exercised from
// the inside.
func TestInjectedCancelBetweenBatches(t *testing.T) {
	b := newFakeBackend()
	// Boundary calls per batch: loop top, pre-delivery, post-delivery.
	fi := faultinject.New(faultinject.Exact(
		faultinject.Fault{Point: faultinject.PipelineCancel, Call: 2},
	))
	cves := cveList(8)
	res, err := Run(context.Background(), b, cves, Config{BatchSize: 4, Workers: 1, Obs: &obs.Hooks{Faults: fi}})
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("Run error = %v, want context.Canceled", err)
	}
	if len(b.applied) != 4 {
		t.Fatalf("applied %v, want exactly the first batch", b.applied)
	}
	for i, m := range res.Members {
		if i < 4 {
			if m.Err != nil {
				t.Fatalf("member %d (delivered) error = %v", i, m.Err)
			}
		} else if !errors.Is(m.Err, context.Canceled) {
			t.Fatalf("member %d error = %v, want context.Canceled", i, m.Err)
		}
	}
}

// One fetch worker fetches inline, trading pipelining for determinism,
// but must not change outcomes: same members applied, same per-member
// results, and a cancellation injected mid-run fires at the same call
// index as with two overlapping workers.
func TestInlineFetchParity(t *testing.T) {
	run := func(workers int) *Result {
		b := newFakeBackend()
		fi := faultinject.New(faultinject.Exact(
			faultinject.Fault{Point: faultinject.PipelineCancel, Call: 5},
		))
		res, err := Run(context.Background(), b, cveList(12),
			Config{BatchSize: 4, Workers: workers, Obs: &obs.Hooks{Faults: fi}})
		if !errors.Is(err, context.Canceled) {
			t.Fatalf("workers=%d: Run error = %v, want context.Canceled", workers, err)
		}
		return res
	}
	// Boundary call 5 is batch 1's post-delivery boundary: exactly the
	// first two batches land, regardless of fetch overlap.
	for _, workers := range []int{2, 1} {
		res := run(workers)
		for i, m := range res.Members {
			if i < 8 && m.Err != nil {
				t.Errorf("workers=%d: member %d error = %v, want applied", workers, i, m.Err)
			}
			if i >= 8 && !errors.Is(m.Err, context.Canceled) {
				t.Errorf("workers=%d: member %d error = %v, want context.Canceled", workers, i, m.Err)
			}
		}
	}
}

// An injected worker stall delays the fetch through the injected
// clock but never changes the outcome.
func TestInjectedWorkerStall(t *testing.T) {
	b := newFakeBackend()
	fake := timing.NewFakeWall()
	fi := faultinject.New(faultinject.Exact(
		faultinject.Fault{Point: faultinject.PipelineStall, Call: 0, Delay: 500 * time.Millisecond},
	))
	res, err := Run(context.Background(), b, cveList(8), Config{BatchSize: 4, Workers: 1, Obs: &obs.Hooks{Faults: fi, Wall: fake}})
	if err != nil {
		t.Fatalf("Run: %v", err)
	}
	for i, m := range res.Members {
		if m.Err != nil {
			t.Fatalf("member %d failed: %v", i, m.Err)
		}
	}
	if fake.Slept() != 500*time.Millisecond {
		t.Fatalf("fake clock slept %v, want 500ms", fake.Slept())
	}
}
