package timing

import (
	"context"
	"sync"
	"time"
)

// WallClock abstracts real elapsed time for the few places the
// simulator genuinely waits (retry backoff, induced network delays) as
// opposed to the virtual Clock that models the paper's latencies.
// Injecting a fake implementation makes those waits deterministic and
// instant in tests, so the chaos suite never depends on wall-clock
// time.
type WallClock interface {
	// Now returns the current wall time.
	Now() time.Time

	// Sleep blocks for d or until ctx is done, whichever comes first,
	// and reports whether the full duration elapsed.
	Sleep(ctx context.Context, d time.Duration) bool
}

// Real returns the WallClock backed by the system clock.
func Real() WallClock { return realClock{} }

type realClock struct{}

func (realClock) Now() time.Time { return time.Now() }

func (realClock) Sleep(ctx context.Context, d time.Duration) bool {
	if d <= 0 {
		return ctx.Err() == nil
	}
	t := time.NewTimer(d)
	defer t.Stop()
	select {
	case <-t.C:
		return true
	case <-ctx.Done():
		return false
	}
}

// FakeWall is a deterministic WallClock: Sleep returns immediately,
// advancing the fake time by the requested duration and recording it.
// A cancelled context still wins over the sleep, preserving the real
// clock's cancellation semantics.
type FakeWall struct {
	mu    sync.Mutex
	now   time.Time
	slept time.Duration
}

// NewFakeWall returns a FakeWall starting at a fixed epoch so tests
// never observe the host clock.
func NewFakeWall() *FakeWall {
	return &FakeWall{now: time.Unix(1_600_000_000, 0)}
}

// Now returns the fake time.
func (f *FakeWall) Now() time.Time {
	f.mu.Lock()
	defer f.mu.Unlock()
	return f.now
}

// Sleep advances the fake time by d without blocking.
func (f *FakeWall) Sleep(ctx context.Context, d time.Duration) bool {
	if ctx.Err() != nil {
		return false
	}
	if d < 0 {
		d = 0
	}
	f.mu.Lock()
	f.now = f.now.Add(d)
	f.slept += d
	f.mu.Unlock()
	return true
}

// Slept returns the total duration requested across all sleeps.
func (f *FakeWall) Slept() time.Duration {
	f.mu.Lock()
	defer f.mu.Unlock()
	return f.slept
}
