package core

import (
	"context"
	"errors"
	"testing"
	"time"

	"kshot/internal/obs"
	"kshot/internal/smmpatch"
	"kshot/internal/timing"
)

// TestStageTimesExactUnderConcurrentClock advances the shared virtual
// clock from another goroutine throughout an Apply and a Rollback, as
// concurrent fetch workers do, and requires the reported stage times to
// be the model's: they must not absorb time the System did not spend.
func TestStageTimesExactUnderConcurrentClock(t *testing.T) {
	d := newDeployment(t, "4.4", 0, "CVE-2014-0196")
	ctx := context.Background()
	if err := d.System.Attach(ctx); err != nil {
		t.Fatal(err)
	}
	stop := make(chan struct{})
	done := make(chan struct{})
	go func() {
		defer close(done)
		for {
			select {
			case <-stop:
				return
			default:
				d.System.Clock.Advance(time.Nanosecond)
			}
		}
	}()
	rep, applyErr := d.System.Apply(ctx, "CVE-2014-0196")
	var rb *Report
	rbErr := applyErr
	if applyErr == nil {
		rb, rbErr = d.System.Rollback(ctx, "CVE-2014-0196")
	}
	close(stop)
	<-done
	if applyErr != nil {
		t.Fatal(applyErr)
	}
	if rbErr != nil {
		t.Fatal(rbErr)
	}

	m := d.System.Model
	st := rep.Stages
	if want := timing.Linear(m.PrepFixed, m.PrepPerByte, st.PayloadBytes); st.Preprocess != want {
		t.Errorf("Apply Preprocess = %v, model says %v for %d bytes", st.Preprocess, want, st.PayloadBytes)
	}
	if st.KeyGen != m.KeyGen || st.Switch != m.SMMEntry+m.SMMExit {
		t.Errorf("Apply KeyGen %v, Switch %v; want %v, %v", st.KeyGen, st.Switch, m.KeyGen, m.SMMEntry+m.SMMExit)
	}
	if rb.Stages.Preprocess != m.PrepFixed {
		t.Errorf("Rollback Preprocess = %v, want the model's %v", rb.Stages.Preprocess, m.PrepFixed)
	}
}

// TestTypedSMMErrorsThroughSystem: a package the SMM handler refuses
// reaches SMM as a directory member, and its typed error survives to
// the caller of Apply and Rollback.
func TestTypedSMMErrorsThroughSystem(t *testing.T) {
	const a, b = "CVE-2014-0196", "CVE-2016-7916"
	for _, tc := range []struct {
		name  string
		setup []string // CVEs applied first
		op    func(ctx context.Context, s *System) error
		want  error
	}{
		{"duplicate apply", []string{a}, func(ctx context.Context, s *System) error {
			_, err := s.Apply(ctx, a)
			return err
		}, smmpatch.ErrDuplicate},
		{"out-of-order rollback", []string{a, b}, func(ctx context.Context, s *System) error {
			_, err := s.Rollback(ctx, a)
			return err
		}, smmpatch.ErrRollbackOrder},
		{"rollback of nothing", nil, func(ctx context.Context, s *System) error {
			_, err := s.Rollback(ctx, a)
			return err
		}, smmpatch.ErrNothingApplied},
	} {
		t.Run(tc.name, func(t *testing.T) {
			d := newDeployment(t, "4.4", 0, a, b)
			ctx := context.Background()
			for _, cve := range tc.setup {
				if _, err := d.System.Apply(ctx, cve); err != nil {
					t.Fatal(err)
				}
			}
			before := d.System.Applied()
			err := tc.op(ctx, d.System)
			if !errors.Is(err, tc.want) {
				t.Fatalf("got %v, want %v", err, tc.want)
			}
			if after := d.System.Applied(); len(after) != len(before) {
				t.Errorf("journal %v became %v after a refused package", before, after)
			}
		})
	}
}

// TestRollbackReportOutsideDowntime: a rollback takes a patch's
// delivery path but is not a patch. The downtime histogram the rollout
// health gate reads counts only the patches, and the rollback's report
// carries no fetch and no payload, the model's fixed preprocessing cost
// and one whole world switch. An out-of-order rollback keeps its typed
// refusal.
func TestRollbackReportOutsideDowntime(t *testing.T) {
	const a, b = "CVE-2014-0196", "CVE-2016-7916"
	d := newDeployment(t, "4.4", 0, a, b)
	ctx := context.Background()
	metrics := obs.NewMetrics()
	d.System.SetObserver(&obs.Hooks{Metrics: metrics})
	downtimeSamples := func() uint64 {
		for _, h := range metrics.Snapshot().Hists {
			if h.Name == obs.HistDowntime {
				return h.Count
			}
		}
		return 0
	}

	if _, err := d.System.Apply(ctx, a); err != nil {
		t.Fatal(err)
	}
	rb, err := d.System.Rollback(ctx, a)
	if err != nil {
		t.Fatal(err)
	}
	if n := downtimeSamples(); n != 1 {
		t.Errorf("%s has %d samples after one Apply and one Rollback, want 1", obs.HistDowntime, n)
	}
	m, st := d.System.Model, rb.Stages
	if st.Fetch != 0 || st.PayloadBytes != 0 {
		t.Errorf("Rollback Fetch %v over %d bytes, want none", st.Fetch, st.PayloadBytes)
	}
	if st.Preprocess != m.PrepFixed || st.Switch != m.SMMEntry+m.SMMExit {
		t.Errorf("Rollback Preprocess %v, Switch %v; want %v, %v", st.Preprocess, st.Switch, m.PrepFixed, m.SMMEntry+m.SMMExit)
	}

	for _, cve := range []string{a, b} {
		if _, err := d.System.Apply(ctx, cve); err != nil {
			t.Fatal(err)
		}
	}
	if _, err := d.System.Rollback(ctx, a); !errors.Is(err, smmpatch.ErrRollbackOrder) {
		t.Fatalf("out-of-order Rollback: got %v, want ErrRollbackOrder", err)
	}
	if n := downtimeSamples(); n != 3 {
		t.Errorf("%s has %d samples after three Applies, want 3", obs.HistDowntime, n)
	}
}
