package core

import (
	"context"
	"errors"
	"sync"
	"testing"

	"kshot/internal/introspect"
)

// loseAckAtNextSMIExit attaches d's System and arranges for the patch
// server to close as the next SMI exits: SMM has done its work, and the
// status report that follows cannot be acknowledged.
func loseAckAtNextSMIExit(t *testing.T, d *testDeployment) {
	t.Helper()
	sys := d.System
	if err := sys.Attach(context.Background()); err != nil {
		t.Fatal(err)
	}
	if err := sys.EnableIntrospection(introspect.Config{}); err != nil {
		t.Fatal(err)
	}
	var once sync.Once
	sys.IntrospectionEvents().SetTap(func(ev introspect.Event) {
		if ev.Kind == introspect.KindSMIExit {
			once.Do(d.Server.Close)
		}
	})
}

// TestApplyAllUnacknowledgedKeepsOutcomes: SMM applied the package, so
// both CVEs are applied and reported, under one SMI and with no
// degraded redelivery, even though the server never acknowledged the
// status record.
func TestApplyAllUnacknowledgedKeepsOutcomes(t *testing.T) {
	cves := []string{"CVE-2014-0196", "CVE-2016-7916"}
	d := newDeployment(t, "4.4", 0, cves...)
	loseAckAtNextSMIExit(t, d)

	rep, err := d.System.ApplyAll(context.Background(), cves)
	if !errors.Is(err, ErrUnacknowledged) {
		t.Errorf("ApplyAll error = %v, want ErrUnacknowledged", err)
	}
	if rep == nil {
		t.Fatal("ApplyAll returned no report")
	}
	if len(rep.Reports) != 2 || len(rep.Failed) != 0 {
		t.Errorf("reports %d, failed %v; want both CVEs reported", len(rep.Reports), rep.Failed)
	}
	if rep.SMIs != 1 || rep.Degraded != 0 {
		t.Errorf("SMIs = %d, degraded = %d; want 1 and 0", rep.SMIs, rep.Degraded)
	}
	if got := d.System.Applied(); len(got) != 2 {
		t.Errorf("Applied() = %v, want both CVEs", got)
	}
}

// TestApplyUnacknowledgedKeepsReport is the same promise for one Apply.
func TestApplyUnacknowledgedKeepsReport(t *testing.T) {
	d := newDeployment(t, "4.4", 0, "CVE-2014-0196")
	loseAckAtNextSMIExit(t, d)

	rep, err := d.System.Apply(context.Background(), "CVE-2014-0196")
	if !errors.Is(err, ErrUnacknowledged) {
		t.Errorf("Apply error = %v, want ErrUnacknowledged", err)
	}
	if rep == nil || rep.ID != "CVE-2014-0196" || rep.Stages.Apply <= 0 {
		t.Errorf("report = %+v, want the applied patch's", rep)
	}
	if got := d.System.Applied(); len(got) != 1 {
		t.Errorf("Applied() = %v, want the CVE", got)
	}
}

// TestRollbackUnacknowledgedKeepsReport: SMM rolled the patch back, so
// Rollback reports it, together with ErrUnacknowledged.
func TestRollbackUnacknowledgedKeepsReport(t *testing.T) {
	d := newDeployment(t, "4.4", 0, "CVE-2014-0196")
	if _, err := d.System.Apply(context.Background(), "CVE-2014-0196"); err != nil {
		t.Fatal(err)
	}
	loseAckAtNextSMIExit(t, d)

	rep, err := d.System.Rollback(context.Background(), "CVE-2014-0196")
	if !errors.Is(err, ErrUnacknowledged) {
		t.Errorf("Rollback error = %v, want ErrUnacknowledged", err)
	}
	if rep == nil || rep.ID != "CVE-2014-0196" {
		t.Errorf("report = %+v, want the rolled-back patch's", rep)
	}
	if got := d.System.Applied(); len(got) != 0 {
		t.Errorf("Applied() = %v, want none", got)
	}
}
