package core

import (
	"context"
	"errors"
	"io"
	"net"
	"strings"
	"sync"
	"testing"
	"time"

	"kshot/internal/introspect"
	"kshot/internal/mem"
	"kshot/internal/patchserver"
	"kshot/internal/smmpatch"
)

// loseAckAtNextSMIExit attaches d's System and arranges for the patch
// server to close as the next SMI exits: SMM has done its work, and the
// status report that follows cannot be acknowledged.
func loseAckAtNextSMIExit(t *testing.T, d *testDeployment) {
	t.Helper()
	atNextSMIExit(t, d, d.Server.Close)
}

// atNextSMIExit attaches d's System and runs fn, on the delivering
// goroutine, as the next SMI exits.
func atNextSMIExit(t *testing.T, d *testDeployment, fn func()) {
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
			once.Do(fn)
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

// TestRollbackUnacknowledgedKeepsReport: Rollback makes no round trip,
// so with the server gone it still reports the rolled-back patch, with
// no error, and leaves SMM's status record pending for the next
// acknowledgement point.
func TestRollbackUnacknowledgedKeepsReport(t *testing.T) {
	d := newDeployment(t, "4.4", 0, "CVE-2014-0196")
	if _, err := d.System.Apply(context.Background(), "CVE-2014-0196"); err != nil {
		t.Fatal(err)
	}
	loseAckAtNextSMIExit(t, d)

	rep, err := d.System.Rollback(context.Background(), "CVE-2014-0196")
	if err != nil {
		t.Errorf("Rollback error = %v, want nil", err)
	}
	if rep == nil || rep.ID != "CVE-2014-0196" {
		t.Errorf("report = %+v, want the rolled-back patch's", rep)
	}
	if got := d.System.Applied(); len(got) != 0 {
		t.Errorf("Applied() = %v, want none", got)
	}
	if got, want := pendingSeq(d), newestSeq(t, d); got != want {
		t.Errorf("pending Seq = %d, want the rollback's %d", got, want)
	}
}

// newestSeq returns the Seq of the newest status record SMM wrote to
// the mailbox.
func newestSeq(t *testing.T, d *testDeployment) uint64 {
	t.Helper()
	st, err := smmpatch.ReadStatusRecord(d.System.Machine.Mem, d.System.helperPriv, d.System.Kernel.Res)
	if err != nil {
		t.Fatal(err)
	}
	return st.Seq
}

// pendingSeq returns the Seq of the System's unacknowledged record (0:
// none).
func pendingSeq(d *testDeployment) uint64 {
	d.System.statusMu.Lock()
	defer d.System.statusMu.Unlock()
	return d.System.pending.Seq
}

// serverStatus returns what the server holds for d's System.
func serverStatus(d *testDeployment) patchserver.TargetStatus {
	return d.Server.Statuses()[string(attKeyOf(d))]
}

// checkServerSeq fails unless the server holds want as d's newest
// authentic Seq, with no forgeries.
func checkServerSeq(t *testing.T, d *testDeployment, want uint64, when string) {
	t.Helper()
	if st := serverStatus(d); st.Authentic.Seq != want || st.Forgeries != 0 {
		t.Errorf("%s: server Seq %d with %d forgeries, want %d and 0", when, st.Authentic.Seq, st.Forgeries, want)
	}
}

// TestAckApplyHoldsNewestSeq: when Apply returns, the server holds SMM's
// newest record and nothing is left pending.
func TestAckApplyHoldsNewestSeq(t *testing.T) {
	d := newDeployment(t, "4.4", 0, "CVE-2014-0196")
	if _, err := d.System.Apply(context.Background(), "CVE-2014-0196"); err != nil {
		t.Fatal(err)
	}
	checkServerSeq(t, d, newestSeq(t, d), "after Apply")
	if got := pendingSeq(d); got != 0 {
		t.Errorf("pending Seq = %d after Apply, want none", got)
	}
}

// TestAckRollbacksWaitForApplyAll: rollbacks leave the server's record
// where the last ApplyAll put it; the next ApplyAll delivers the newest
// record in its one acknowledgement.
func TestAckRollbacksWaitForApplyAll(t *testing.T) {
	cves := []string{"CVE-2014-0196", "CVE-2016-7916"}
	d := newDeployment(t, "4.4", 0, cves...)
	ctx := context.Background()
	if _, err := d.System.ApplyAll(ctx, cves); err != nil {
		t.Fatal(err)
	}
	acked := newestSeq(t, d)
	if got := serverStatus(d).Authentic.Seq; got != acked {
		t.Fatalf("server Seq %d after ApplyAll, want %d", got, acked)
	}
	applied := d.System.Applied()
	for i := len(applied) - 1; i >= 0; i-- {
		if _, err := d.System.Rollback(ctx, applied[i]); err != nil {
			t.Fatal(err)
		}
	}
	if got := newestSeq(t, d); got != acked+uint64(len(applied)) {
		t.Fatalf("SMM Seq %d after %d rollbacks, want %d", got, len(applied), acked+uint64(len(applied)))
	}
	if got := serverStatus(d).Authentic.Seq; got != acked {
		t.Errorf("server Seq moved to %d during rollbacks, want %d", got, acked)
	}
	if _, err := d.System.ApplyAll(ctx, cves); err != nil {
		t.Fatal(err)
	}
	checkServerSeq(t, d, newestSeq(t, d), "after ApplyAll")
}

// TestAckCloseDeliversRollback: Close sends the record a Rollback left
// pending.
func TestAckCloseDeliversRollback(t *testing.T) {
	d := newDeployment(t, "4.4", 0, "CVE-2014-0196")
	ctx := context.Background()
	if _, err := d.System.Apply(ctx, "CVE-2014-0196"); err != nil {
		t.Fatal(err)
	}
	if _, err := d.System.Rollback(ctx, "CVE-2014-0196"); err != nil {
		t.Fatal(err)
	}
	want := newestSeq(t, d)
	d.System.Close()
	checkServerSeq(t, d, want, "after Close")
}

// TestAckResendAfterFailure: an acknowledgement the server refuses (the
// attached client is swapped, after the fetch, for one that never said
// hello) keeps the record pending; a Rollback's newer record replaces
// it, and the next acknowledgement point sends that one.
func TestAckResendAfterFailure(t *testing.T) {
	d := newDeployment(t, "4.4", 0, "CVE-2014-0196")
	ctx := context.Background()
	sys := d.System
	anon, err := patchserver.Dial(ctx, d.Server.Addr())
	if err != nil {
		t.Fatal(err)
	}
	defer anon.Close()
	var attached *patchserver.Client
	atNextSMIExit(t, d, func() { attached, sys.client = sys.client, anon })

	before := serverStatus(d).Authentic.Seq
	rep, err := sys.Apply(ctx, "CVE-2014-0196")
	if !errors.Is(err, ErrUnacknowledged) || !strings.Contains(err.Error(), "hello required") {
		t.Fatalf("Apply error = %v, want ErrUnacknowledged for the missing hello", err)
	}
	if rep == nil || rep.ID != "CVE-2014-0196" {
		t.Errorf("report = %+v, want the applied patch's", rep)
	}
	if got, want := pendingSeq(d), newestSeq(t, d); got != want {
		t.Errorf("pending Seq = %d after the refused acknowledgement, want %d", got, want)
	}
	if got := serverStatus(d).Authentic.Seq; got != before {
		t.Errorf("server Seq moved from %d to %d without an acknowledgement", before, got)
	}

	if _, err := sys.Rollback(ctx, "CVE-2014-0196"); err != nil {
		t.Fatal(err)
	}
	newest := newestSeq(t, d)
	if got := pendingSeq(d); got != newest {
		t.Errorf("pending Seq = %d after Rollback, want the newer %d", got, newest)
	}
	sys.client = attached
	sys.Close()
	checkServerSeq(t, d, newest, "after the re-send")
}

// TestAckConcurrentApplyRollback races Apply and Rollback on one
// System. Each call may be refused by SMM (out of order, nothing
// applied), but none reports an unacknowledged status, and once Close
// has sent what was left pending the server holds SMM's newest Seq.
func TestAckConcurrentApplyRollback(t *testing.T) {
	const cve = "CVE-2014-0196"
	d := newDeployment(t, "4.4", 0, cve)
	ctx := context.Background()
	if err := d.System.Attach(ctx); err != nil {
		t.Fatal(err)
	}
	var wg sync.WaitGroup
	errs := make(chan error, 16)
	for range 8 {
		wg.Add(2)
		go func() {
			defer wg.Done()
			_, err := d.System.Apply(ctx, cve)
			errs <- err
		}()
		go func() {
			defer wg.Done()
			_, err := d.System.Rollback(ctx, cve)
			errs <- err
		}()
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		if errors.Is(err, ErrUnacknowledged) {
			t.Errorf("unacknowledged: %v", err)
		}
	}
	newest := newestSeq(t, d)
	if got := serverStatus(d).Authentic.Seq; got != newest && pendingSeq(d) != newest {
		t.Errorf("server Seq %d and pending Seq %d, want one of them at SMM's %d", got, pendingSeq(d), newest)
	}
	d.System.Close()
	checkServerSeq(t, d, newest, "after Close")
}

// TestAckCloseBoundedOnWedgedServer: a server that accepts the status
// report and never answers holds Close up for closeAckTimeout, no
// longer.
func TestAckCloseBoundedOnWedgedServer(t *testing.T) {
	d := newDeployment(t, "4.4", 0, "CVE-2014-0196")
	ctx := context.Background()
	if _, err := d.System.Apply(ctx, "CVE-2014-0196"); err != nil {
		t.Fatal(err)
	}
	if _, err := d.System.Rollback(ctx, "CVE-2014-0196"); err != nil {
		t.Fatal(err)
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer ln.Close()
	go func() {
		conn, err := ln.Accept()
		if err != nil {
			return
		}
		defer conn.Close()
		_, _ = io.Copy(io.Discard, conn) // read everything, answer nothing
	}()
	wedged, err := patchserver.Dial(ctx, ln.Addr().String())
	if err != nil {
		t.Fatal(err)
	}
	attached := d.System.client
	d.System.client = wedged
	defer attached.Close()

	closed := make(chan struct{})
	go func() {
		d.System.Close()
		close(closed)
	}()
	select {
	case <-closed:
	case <-time.After(closeAckTimeout + 5*time.Second):
		t.Fatalf("Close still blocked %v after it began, against a wedged server", closeAckTimeout+5*time.Second)
	}
}

// TestAckProtectTamperReachesServer: the tamper verdict of a Protect
// run is kept pending like a package SMI's record, so Close delivers
// it. A rootkit reverts an applied patch's entry bytes at kernel
// privilege; after Protect and Close the server's authentic record is
// StatusTampered at SMM's newest Seq.
func TestAckProtectTamperReachesServer(t *testing.T) {
	d := newDeployment(t, "4.4", 0, "CVE-2014-0196")
	e := d.Entries[0]
	addr, err := d.System.Kernel.FuncAddr(e.Functions[0])
	if err != nil {
		t.Fatal(err)
	}
	orig := make([]byte, 10)
	if err := d.System.Machine.Mem.Read(mem.PrivKernel, addr, orig); err != nil {
		t.Fatal(err)
	}
	if _, err := d.System.Apply(context.Background(), e.CVE); err != nil {
		t.Fatal(err)
	}
	if err := d.System.Machine.Mem.Write(mem.PrivKernel, addr, orig); err != nil {
		t.Fatal(err)
	}
	tampered, err := d.System.Protect()
	if err != nil || !tampered {
		t.Fatalf("Protect = %t, %v; want the reversion found", tampered, err)
	}
	want := newestSeq(t, d)
	if got := pendingSeq(d); got != want {
		t.Errorf("pending Seq = %d after Protect, want %d", got, want)
	}
	d.System.Close()
	checkServerSeq(t, d, want, "after Close")
	if code := serverStatus(d).Authentic.Code; code != smmpatch.StatusTampered {
		t.Errorf("server code %d, want StatusTampered (%d)", code, smmpatch.StatusTampered)
	}
}

// TestAckProtectUnattachedClose: Protect on a System that never
// attached keeps its record pending, and Close, having no connection
// to send it over, neither dials nor fails.
func TestAckProtectUnattachedClose(t *testing.T) {
	d := newDeployment(t, "4.4", 0, "CVE-2014-0196")
	if _, err := d.System.Protect(); err != nil {
		t.Fatal(err)
	}
	if pendingSeq(d) == 0 {
		t.Error("Protect left no record pending")
	}
	d.System.Close()
	if n := len(d.Server.Statuses()); n != 0 {
		t.Errorf("server holds %d status records, want none", n)
	}
}
