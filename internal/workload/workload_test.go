package workload

import (
	"testing"
	"time"

	"kshot/internal/kernel"
	"kshot/internal/machine"
	"kshot/internal/mem"
)

func bootKernel(t *testing.T, vcpus int) *kernel.Kernel {
	t.Helper()
	st, err := kernel.BaseTree("4.4")
	if err != nil {
		t.Fatal(err)
	}
	img, _, err := st.Build()
	if err != nil {
		t.Fatal(err)
	}
	m, err := machine.New(machine.Config{NumVCPUs: vcpus})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(m.Stop)
	k, err := kernel.Boot(m, img, st.Config(), mem.ReservedLayout{})
	if err != nil {
		t.Fatal(err)
	}
	return k
}

func TestRunForProducesThroughput(t *testing.T) {
	k := bootKernel(t, 2)
	for _, kind := range []Kind{CPU, Memory, Mixed} {
		t.Run(kind.String(), func(t *testing.T) {
			d := New(k, kind)
			st, err := d.RunFor(50 * time.Millisecond)
			if err != nil {
				t.Fatal(err)
			}
			if st.Ops == 0 {
				t.Error("no operations completed")
			}
			if st.Errors != 0 {
				t.Errorf("%d workload errors", st.Errors)
			}
			if st.OpsPerSec() <= 0 {
				t.Error("zero throughput")
			}
		})
	}
}

func TestDoubleStartRejected(t *testing.T) {
	k := bootKernel(t, 1)
	d := New(k, CPU)
	if err := d.Start(); err != nil {
		t.Fatal(err)
	}
	if err := d.Start(); err == nil {
		t.Error("second Start succeeded")
	}
	d.Stop()
	// Restart after stop is fine.
	if err := d.Start(); err != nil {
		t.Fatal(err)
	}
	d.Stop()
}

func TestStopWithoutStart(t *testing.T) {
	k := bootKernel(t, 1)
	d := New(k, CPU)
	if s := d.Stop(); s.Ops != 0 {
		t.Error("phantom ops")
	}
}

func TestOverheadOfPauses(t *testing.T) {
	k := bootKernel(t, 2)
	d := New(k, Mixed)
	// Disturb with repeated machine pauses (the SMI effect); overhead
	// must be measurable but bounded.
	_, disturbed, ov, err := Overhead(d, 80*time.Millisecond, func() error {
		for i := 0; i < 50; i++ {
			k.M.Pause()
			time.Sleep(50 * time.Microsecond)
			k.M.Resume()
			time.Sleep(time.Millisecond)
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	if disturbed.Ops == 0 {
		t.Error("workload starved during disturbance")
	}
	if ov > 0.9 {
		t.Errorf("overhead %.2f implausibly high", ov)
	}
}

func TestKindString(t *testing.T) {
	if CPU.String() != "cpu" || Memory.String() != "memory" || Mixed.String() != "mixed" {
		t.Error("kind names wrong")
	}
	if Kind(9).String() == "" {
		t.Error("unknown kind empty")
	}
}
