package timing

import (
	"context"
	"testing"
	"time"
)

func TestFakeWallSleepIsInstantAndRecorded(t *testing.T) {
	f := NewFakeWall()
	start := f.Now()
	ctx := context.Background()

	real := time.Now()
	if !f.Sleep(ctx, time.Hour) {
		t.Fatal("Sleep returned false on live context")
	}
	if elapsed := time.Since(real); elapsed > time.Second {
		t.Fatalf("fake Sleep blocked for %v", elapsed)
	}
	if got := f.Now().Sub(start); got != time.Hour {
		t.Fatalf("fake time advanced %v, want 1h", got)
	}
	if f.Slept() != time.Hour {
		t.Fatalf("recorded slept=%v", f.Slept())
	}
}

func TestFakeWallSleepRespectsCancelledContext(t *testing.T) {
	f := NewFakeWall()
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if f.Sleep(ctx, time.Minute) {
		t.Fatal("Sleep returned true on cancelled context")
	}
	if f.Slept() != 0 {
		t.Fatalf("cancelled sleep still advanced time by %v", f.Slept())
	}
}

func TestFakeWallStartsAtFixedEpoch(t *testing.T) {
	if !NewFakeWall().Now().Equal(NewFakeWall().Now()) {
		t.Fatal("two fresh fake walls disagree on the epoch")
	}
}

func TestRealSleepInterruptedByCancel(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	go func() {
		time.Sleep(20 * time.Millisecond)
		cancel()
	}()
	start := time.Now()
	if Real().Sleep(ctx, 30*time.Second) {
		t.Fatal("Sleep reported full duration despite cancel")
	}
	if elapsed := time.Since(start); elapsed > 5*time.Second {
		t.Fatalf("cancelled Sleep blocked for %v", elapsed)
	}
}

func TestRealSleepZeroDuration(t *testing.T) {
	if !Real().Sleep(context.Background(), 0) {
		t.Fatal("zero-duration sleep on live context should report true")
	}
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if Real().Sleep(ctx, 0) {
		t.Fatal("zero-duration sleep on cancelled context should report false")
	}
}
