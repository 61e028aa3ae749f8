package timing

import (
	"context"
	"time"
)

// Backoff paces the pipeline's redelivery of refused batch members
// with exponential delays driven by a WallClock, so the chaos suite can
// run it on fake time. Not safe for concurrent use; make one per retry
// loop.
type Backoff struct {
	wall WallClock
	next time.Duration
}

// NewBackoff returns a Backoff whose first Sleep waits base, doubling
// each call. A nil wall uses the real clock; a non-positive base
// disables waiting (Sleep only checks ctx).
func NewBackoff(wall WallClock, base time.Duration) *Backoff {
	if wall == nil {
		wall = Real()
	}
	return &Backoff{wall: wall, next: base}
}

// Sleep waits for the current delay (doubling it for the next call)
// and reports whether the full wait elapsed; false means ctx is done
// and the retry loop should stop.
func (b *Backoff) Sleep(ctx context.Context) bool {
	d := b.next
	b.next *= 2
	if d <= 0 {
		return ctx.Err() == nil
	}
	return b.wall.Sleep(ctx, d)
}
