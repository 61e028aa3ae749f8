package smm

import (
	"errors"
	"testing"

	"kshot/internal/faultinject"
	"kshot/internal/obs"
)

// An injected SMI refusal surfaces before any world switch: the
// handler never runs, no pause is charged, and the next SMI goes
// through untouched.
func TestInjectedSMIRefusal(t *testing.T) {
	_, c := newTestPlatform(t)
	ran := 0
	if err := c.Register(Command(0x10), func(ctx *Context, arg uint64) error {
		ran++
		return nil
	}); err != nil {
		t.Fatal(err)
	}
	if err := c.Lock(); err != nil {
		t.Fatal(err)
	}

	c.SetObserver(&obs.Hooks{Faults: faultinject.New(faultinject.Exact(
		faultinject.Fault{Point: faultinject.SMMRefuse, Call: 0},
	))})

	err := c.Trigger(Command(0x10), 0)
	if !errors.Is(err, faultinject.ErrInjected) {
		t.Fatalf("Trigger error = %v, want injected refusal", err)
	}
	if ran != 0 {
		t.Fatal("handler ran despite refused SMI")
	}
	if c.Entries() != 0 {
		t.Fatalf("refused SMI counted as entry (%d)", c.Entries())
	}
	if c.TotalPause() != 0 {
		t.Fatalf("refused SMI charged pause %v", c.TotalPause())
	}

	// The schedule is exhausted: delivery recovers.
	if err := c.Trigger(Command(0x10), 0); err != nil {
		t.Fatalf("second Trigger: %v", err)
	}
	if ran != 1 || c.Entries() != 1 {
		t.Fatalf("recovery SMI: ran=%d entries=%d", ran, c.Entries())
	}
}
