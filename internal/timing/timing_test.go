package timing

import (
	"sync"
	"testing"
	"time"
)

func TestClockAdvanceAndNow(t *testing.T) {
	var c Clock
	if c.Now() != 0 {
		t.Error("fresh clock not at zero")
	}
	if got := c.Advance(5 * time.Microsecond); got != 5*time.Microsecond {
		t.Errorf("Advance returned %v", got)
	}
	c.Advance(2 * time.Microsecond)
	if c.Now() != 7*time.Microsecond {
		t.Errorf("Now = %v", c.Now())
	}
}

func TestClockSpan(t *testing.T) {
	var c Clock
	d := c.Span(func() {
		c.Advance(3 * time.Millisecond)
	})
	if d != 3*time.Millisecond {
		t.Errorf("Span = %v", d)
	}
}

func TestClockConcurrent(t *testing.T) {
	var c Clock
	var wg sync.WaitGroup
	for i := 0; i < 8; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for j := 0; j < 1000; j++ {
				c.Advance(time.Nanosecond)
			}
		}()
	}
	wg.Wait()
	if c.Now() != 8000*time.Nanosecond {
		t.Errorf("concurrent total = %v", c.Now())
	}
}

func TestCalibratedPaperConstants(t *testing.T) {
	m := Calibrated()
	// §VI-C2 verbatim.
	if m.SMMEntry != 12900*time.Nanosecond || m.SMMExit != 21700*time.Nanosecond || m.KeyGen != 5200*time.Nanosecond {
		t.Errorf("fixed costs = %v/%v/%v", m.SMMEntry, m.SMMExit, m.KeyGen)
	}
	// The model must land close to the paper's calibration rows.
	checks := []struct {
		name  string
		got   time.Duration
		paper time.Duration
	}{
		{"prep 4KB", Linear(m.PrepFixed, m.PrepPerByte, 4096), 8034 * time.Microsecond},
		{"fetch 400KB", Linear(m.FetchFixed, m.FetchPerByte, 400<<10), 16707 * time.Microsecond},
		{"verify 400KB", Linear(m.VerifyFixed, m.VerifyPerByte, 400<<10), 311150 * time.Nanosecond},
		{"apply 400KB", Linear(m.ApplyFixed, m.ApplyPerByte, 400<<10), 396450 * time.Nanosecond},
	}
	for _, c := range checks {
		ratio := float64(c.got) / float64(c.paper)
		if ratio < 0.85 || ratio > 1.15 {
			t.Errorf("%s: model %v vs paper %v (ratio %.2f)", c.name, c.got, c.paper, ratio)
		}
	}
	// SDBM must be cheaper per byte than SHA-256.
	if m.VerifySDBMPerByte >= m.VerifyPerByte {
		t.Error("SDBM not cheaper than SHA-256 in the model")
	}
	// Baseline ordering constants.
	if m.KUPKexecFixed <= m.KpatchStopMachine || m.KpatchStopMachine <= m.KARMAFixed {
		t.Error("baseline fixed costs out of order")
	}
}

func TestLinearSubNanosecondRates(t *testing.T) {
	// A 0.33 ns/B rate over 3 bytes must not vanish to zero over large
	// counts even though each byte is sub-nanosecond.
	d := Linear(0, 0.33, 1<<20)
	if d < 300*time.Microsecond || d > 400*time.Microsecond {
		t.Errorf("Linear(0.33ns/B, 1MB) = %v", d)
	}
	if Linear(time.Microsecond, 0, 12345) != time.Microsecond {
		t.Error("zero rate added time")
	}
}
