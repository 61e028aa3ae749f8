package core

import (
	"context"
	"errors"
	"fmt"
	"math/rand"
	"testing"
	"time"

	"kshot/internal/cvebench"
	"kshot/internal/kernel"
	"kshot/internal/patchserver"
	"kshot/internal/smmpatch"
)

// batchCVEs is a conflict-free subset of Table I (distinct functions
// and files) used for ApplyAll tests.
var batchCVEs = []string{
	"CVE-2014-0196", "CVE-2016-7916", "CVE-2016-2543",
	"CVE-2015-5707", "CVE-2016-4578",
}

func TestApplyAllBatchedSingleSMI(t *testing.T) {
	d := newDeployment(t, "4.4", 0, batchCVEs...)
	rep, err := d.System.ApplyAll(context.Background(), batchCVEs, WithBatchSize(8))
	if err != nil {
		t.Fatalf("ApplyAll: %v", err)
	}
	if len(rep.Failed) > 0 {
		t.Fatalf("failures: %v", rep.Failed)
	}
	// Five patches, one world switch.
	if rep.SMIs != 1 {
		t.Errorf("SMIs = %d, want 1 batched SMI for %d patches", rep.SMIs, len(batchCVEs))
	}
	if rep.Batches != 1 || rep.Singles != 0 || rep.Degraded != 0 || rep.Retries != 0 {
		t.Errorf("traffic = %d batches, %d singles, %d degraded, %d retries", rep.Batches, rep.Singles, rep.Degraded, rep.Retries)
	}
	if rep.SMMPause <= 0 {
		t.Error("no SMM pause recorded")
	}
	// Reports are in request order and fully staged.
	if len(rep.Reports) != len(batchCVEs) {
		t.Fatalf("reports = %d, want %d", len(rep.Reports), len(batchCVEs))
	}
	var smmSum time.Duration
	for i, r := range rep.Reports {
		if r.ID != batchCVEs[i] {
			t.Errorf("report %d = %s, want %s", i, r.ID, batchCVEs[i])
		}
		st := r.Stages
		if st.Fetch <= 0 || st.Preprocess <= 0 || st.Pass <= 0 {
			t.Errorf("%s: SGX stages not all positive: %+v", r.ID, st)
		}
		if st.KeyGen <= 0 || st.Decrypt <= 0 || st.Verify <= 0 || st.Apply <= 0 || st.Switch <= 0 {
			t.Errorf("%s: SMM stages not all positive: %+v", r.ID, st)
		}
		smmSum += st.SMMTotal()
	}
	// Per-member SMM stage times never exceed the true pause (key
	// generation and world switch are amortized, never double-counted).
	if smmSum > rep.SMMPause {
		t.Errorf("member SMM totals %v exceed measured pause %v", smmSum, rep.SMMPause)
	}
	// Every exploit is neutralized.
	for _, e := range d.Entries {
		res, err := e.Exploit(d.System.Kernel, 0)
		if err != nil {
			t.Fatal(err)
		}
		if res.Vulnerable {
			t.Errorf("%s still vulnerable after batched apply", e.CVE)
		}
	}
	if got := d.System.Applied(); len(got) != len(batchCVEs) {
		t.Errorf("Applied() = %v", got)
	}
	// The server saw the batch confirmation, authentically.
	st, ok := d.Server.Statuses()[string(attKeyOf(d))]
	if !ok {
		t.Fatal("server saw no batch status")
	}
	if st.Authentic.Code != smmpatch.StatusBatchDone || st.Forgeries != 0 {
		t.Errorf("batch status = %+v", st)
	}
}

// TestApplyAllDuplicateOneSMI: ApplyAll of a CVE that is already
// applied delivers it alone, once. SMM refuses the duplicate under one
// SMI, and a member delivered alone is not redelivered.
func TestApplyAllDuplicateOneSMI(t *testing.T) {
	const cve = "CVE-2014-0196"
	d := newDeployment(t, "4.4", 0, cve)
	ctx := context.Background()
	if _, err := d.System.Apply(ctx, cve); err != nil {
		t.Fatal(err)
	}
	rep, err := d.System.ApplyAll(ctx, []string{cve})
	if err != nil {
		t.Fatalf("ApplyAll: %v", err)
	}
	if !errors.Is(rep.Failed[cve], smmpatch.ErrDuplicate) {
		t.Errorf("Failed[%s] = %v, want ErrDuplicate", cve, rep.Failed[cve])
	}
	if rep.SMIs != 1 || rep.Singles != 1 || rep.Degraded != 0 {
		t.Errorf("SMIs=%d Singles=%d Degraded=%d, want 1/1/0", rep.SMIs, rep.Singles, rep.Degraded)
	}
}

func TestApplyAllRollbackOrdering(t *testing.T) {
	cves := batchCVEs[:3]
	d := newDeployment(t, "4.4", 0, cves...)
	if rep, err := d.System.ApplyAll(context.Background(), cves); err != nil || len(rep.Failed) > 0 {
		t.Fatalf("ApplyAll: %v, failed %v", err, rep.Failed)
	}
	applied := d.System.Applied()
	if len(applied) != 3 {
		t.Fatalf("Applied() = %v", applied)
	}
	// Batched members journal in request order, so rollback is LIFO on
	// that order: rolling back the first applied is refused.
	if _, err := d.System.Rollback(context.Background(), applied[0]); err == nil {
		t.Error("out-of-order rollback of a batched patch succeeded")
	}
	for i := len(applied) - 1; i >= 0; i-- {
		if _, err := d.System.Rollback(context.Background(), applied[i]); err != nil {
			t.Fatalf("rollback %s: %v", applied[i], err)
		}
	}
	if got := d.System.Applied(); len(got) != 0 {
		t.Errorf("Applied() after full rollback = %v", got)
	}
	// The system is still serviceable: the whole batch re-applies.
	if rep, err := d.System.ApplyAll(context.Background(), cves); err != nil || len(rep.Failed) > 0 {
		t.Fatalf("re-ApplyAll: %v, failed %v", err, rep.Failed)
	}
}

func TestApplyAllCancellationLeavesSystemConsistent(t *testing.T) {
	d := newDeployment(t, "4.4", 0, batchCVEs[:2]...)
	// Attach first: cancellation must reach the pipeline itself, not
	// stop at first contact.
	if err := d.System.Attach(context.Background()); err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	rep, err := d.System.ApplyAll(ctx, []string{batchCVEs[0], batchCVEs[1]})
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("ApplyAll err = %v, want context.Canceled", err)
	}
	if len(rep.Reports) != 0 {
		t.Errorf("canceled run reported successes: %v", rep.Reports)
	}
	if got := d.System.Applied(); len(got) != 0 {
		t.Errorf("patches applied despite cancellation: %v", got)
	}
	// A canceled single Apply also fails cleanly.
	if _, err := d.System.Apply(ctx, batchCVEs[0]); err == nil {
		t.Error("Apply with canceled context succeeded")
	}
	// The system (and its server connection) remain fully usable.
	if _, err := d.System.Apply(context.Background(), batchCVEs[0]); err != nil {
		t.Fatalf("Apply after cancellation: %v", err)
	}
	res, _ := d.Entries[0].Exploit(d.System.Kernel, 0)
	if res.Vulnerable {
		t.Error("post-cancellation apply ineffective")
	}
}

// spinVuln/spinFixed define a patch target that parks inside itself
// until released via a global, so a test can hold a vCPU inside the
// function and deterministically draw an activeness refusal.
const spinVuln = `
.global gadget_entered 8
.global gadget_release 8
.func spin_gadget         ; (x) -> x+1, waits for release first
    movi r2, 1
    storeg gadget_entered, r2
.wait:
    loadg r2, gadget_release
    cmpi r2, 0
    jz .wait
    mov r0, r1
    addi r0, 1
    ret
.endfunc
`

const spinFixed = `
.global gadget_entered 8
.global gadget_release 8
.func spin_gadget         ; patched: -> x+2
    movi r2, 1
    storeg gadget_entered, r2
.wait:
    loadg r2, gadget_release
    cmpi r2, 0
    jz .wait
    mov r0, r1
    addi r0, 2
    ret
.endfunc
`

func TestApplyAllRetriesOnlyActiveMember(t *testing.T) {
	// Deployment with two ordinary CVEs plus the parkable spin target,
	// activeness checking on.
	entries := []*cvebench.Entry{mustGet(t, "CVE-2014-0196"), mustGet(t, "CVE-2016-7916")}
	provider := func(version string) (*kernel.SourceTree, error) {
		tree, err := kernel.BaseTree(version)
		if err != nil {
			return nil, err
		}
		for _, e := range entries {
			tree.AddFile(e.File, e.Vuln)
		}
		tree.AddFile("cve/spin.asm", spinVuln)
		return tree, nil
	}
	srv, err := patchserver.New(patchserver.WithTreeProvider(provider))
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(srv.Close)
	for _, e := range entries {
		srv.RegisterPatch(e.SourcePatch())
	}
	srv.RegisterPatch(kernel.SourcePatch{ID: "CVE-SPIN", Files: map[string]string{"cve/spin.asm": spinFixed}})

	extra := map[string]string{"cve/spin.asm": spinVuln}
	for _, e := range entries {
		extra[e.File] = e.Vuln
	}
	sys, err := NewSystemCtx(context.Background(), Options{
		Version:         "4.4",
		NumVCPUs:        2,
		ExtraFiles:      extra,
		ServerAddr:      srv.Addr(),
		CheckActiveness: true,
		Rand:            &detRand{r: rand.New(rand.NewSource(7))},
	})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(sys.Close)
	// First contact up front: the release below keys off the first SMI,
	// which must be the batch's, not the channel bootstrap.
	if err := sys.Attach(context.Background()); err != nil {
		t.Fatal(err)
	}

	// Park vCPU 0 inside spin_gadget.
	if err := sys.Kernel.WriteGlobal("gadget_release", 0); err != nil {
		t.Fatal(err)
	}
	done := make(chan error, 1)
	go func() {
		// Generous step budget: the gadget busy-waits for the release
		// global, and block dispatch retires spin iterations far
		// faster than the default budget's worth of wall-clock.
		_, err := sys.Kernel.CallSteps(0, "spin_gadget", 200_000_000, 41)
		done <- err
	}()
	deadline := time.Now().Add(5 * time.Second)
	for {
		v, err := sys.Kernel.ReadGlobal("gadget_entered")
		if err != nil {
			t.Fatal(err)
		}
		if v == 1 {
			break
		}
		if time.Now().After(deadline) {
			t.Fatal("vCPU never entered spin_gadget")
		}
		time.Sleep(100 * time.Microsecond)
	}
	// Release the parked call only after the batch SMI has run (and so
	// refused the spin member); the 10ms retry backoff then gives the
	// released vCPU ample time to leave the gadget before redelivery.
	smis0 := sys.SMM.Entries()
	go func() {
		for sys.SMM.Entries() == smis0 {
			time.Sleep(100 * time.Microsecond)
		}
		time.Sleep(time.Millisecond)
		if err := sys.Kernel.WriteGlobal("gadget_release", 1); err != nil {
			t.Errorf("release: %v", err)
		}
	}()

	cves := []string{"CVE-2014-0196", "CVE-SPIN", "CVE-2016-7916"}
	rep, err := sys.ApplyAll(context.Background(), cves,
		WithBatchSize(8), WithMaxRetries(8), WithRetryBackoff(10*time.Millisecond))
	if err != nil {
		t.Fatalf("ApplyAll: %v", err)
	}
	if cerr := <-done; cerr != nil {
		t.Fatalf("parked call: %v", cerr)
	}
	if len(rep.Failed) > 0 {
		t.Fatalf("failures: %v", rep.Failed)
	}
	// The live member was refused in the batch and redelivered alone;
	// its healthy batch mates were not repeated.
	if rep.Batches != 1 {
		t.Errorf("batch SMIs = %d, want 1", rep.Batches)
	}
	if rep.Retries == 0 {
		t.Error("no retries recorded for the active member")
	}
	if rep.Singles != rep.Retries {
		t.Errorf("singles = %d, retries = %d; only the refused member should be redelivered", rep.Singles, rep.Retries)
	}
	if rep.Degraded != 0 {
		t.Errorf("degraded = %d, want 0 (refusal is retryable, not a verification failure)", rep.Degraded)
	}
	if got := sys.Applied(); len(got) != 3 {
		t.Errorf("Applied() = %v", got)
	}
	// The patched gadget computes the fixed result.
	if err := sys.Kernel.WriteGlobal("gadget_release", 1); err != nil {
		t.Fatal(err)
	}
	v, err := sys.Kernel.Call(0, "spin_gadget", 41)
	if err != nil || v != 43 {
		t.Errorf("patched spin_gadget = %d, %v; want 43", v, err)
	}
}

func TestTypedErrors(t *testing.T) {
	// Wrapping preserves errors.Is across the public sentinels.
	err := fmt.Errorf("%w: CVE-X: %w", ErrFetch, errors.New("conn reset"))
	if !errors.Is(err, ErrFetch) {
		t.Error("wrapped fetch error lost ErrFetch")
	}
	err = fmt.Errorf("%w: CVE-X: bad seal", ErrEnclavePrepare)
	if !errors.Is(err, ErrEnclavePrepare) {
		t.Error("wrapped prepare error lost ErrEnclavePrepare")
	}
	if !errors.Is(fmt.Errorf("core: x: %w", smmpatch.ErrTargetActive), ErrTargetActive) {
		t.Error("smmpatch refusal does not match core.ErrTargetActive")
	}

	// StatusError matches the sentinel and surfaces codes via As.
	se := error(&StatusError{ID: "CVE-Y", Got: smmpatch.StatusError, Want: smmpatch.StatusPatched})
	if !errors.Is(se, ErrStatusMismatch) {
		t.Error("StatusError does not match ErrStatusMismatch")
	}
	var got *StatusError
	if !errors.As(fmt.Errorf("deliver: %w", se), &got) || got.Got != smmpatch.StatusError {
		t.Errorf("errors.As(StatusError) = %v, %+v", got != nil, got)
	}
	if errors.Is(se, ErrFetch) || errors.Is(se, ErrTargetActive) {
		t.Error("StatusError matches unrelated sentinels")
	}
}

func TestApplyFetchErrorTyped(t *testing.T) {
	d := newDeployment(t, "4.4", 0, "CVE-2016-7916")
	_, err := d.System.Apply(context.Background(), "CVE-1999-0001")
	if !errors.Is(err, ErrFetch) {
		t.Errorf("unknown-CVE apply error = %v, want ErrFetch", err)
	}
}
