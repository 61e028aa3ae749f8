package core

import (
	"context"
	"errors"
	"math/rand"
	"net"
	"strings"
	"sync"
	"testing"

	"kshot/internal/cvebench"
	"kshot/internal/kcrypto"
	"kshot/internal/mem"
	"kshot/internal/options"
	"kshot/internal/patchserver"
	"kshot/internal/sgx"
	"kshot/internal/sgxprep"
	"kshot/internal/smmpatch"
)

// detRand is a deterministic entropy source for reproducible tests.
type detRand struct{ r *rand.Rand }

func (d *detRand) Read(p []byte) (int, error) {
	for i := range p {
		p[i] = byte(d.r.Intn(256))
	}
	return len(p), nil
}

// testDeployment is a server + provisioned system fixture.
type testDeployment struct {
	Server  *patchserver.Server
	System  *System
	Entries []*cvebench.Entry
}

func newDeployment(t *testing.T, version string, alg kcrypto.HashAlg, cves ...string) *testDeployment {
	t.Helper()
	entries := make([]*cvebench.Entry, len(cves))
	extra := make(map[string]string, len(cves))
	for i, id := range cves {
		e, ok := cvebench.Get(id)
		if !ok {
			t.Fatalf("unknown CVE %s", id)
		}
		entries[i] = e
		extra[e.File] = e.Vuln
	}
	srv, err := patchserver.New(patchserver.WithTreeProvider(cvebench.TreeProviderFor(entries...)))
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(srv.Close)
	for _, e := range entries {
		srv.RegisterPatch(e.SourcePatch())
	}
	sys, err := NewSystemCtx(context.Background(), Options{
		Version:    version,
		NumVCPUs:   2,
		ExtraFiles: extra,
		ServerAddr: srv.Addr(),
		HashAlg:    alg,
		Rand:       &detRand{r: rand.New(rand.NewSource(42))},
	})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(sys.Close)
	return &testDeployment{Server: srv, System: sys, Entries: entries}
}

func TestApplyEndToEnd(t *testing.T) {
	d := newDeployment(t, "4.4", 0, "CVE-2014-0196")
	e := d.Entries[0]

	res, err := e.Exploit(d.System.Kernel, 0)
	if err != nil {
		t.Fatal(err)
	}
	if !res.Vulnerable {
		t.Fatal("kernel not vulnerable before patch")
	}

	rep, err := d.System.Apply(context.Background(), e.CVE)
	if err != nil {
		t.Fatalf("Apply: %v", err)
	}
	if rep.ID != e.CVE {
		t.Errorf("report ID = %s", rep.ID)
	}
	st := rep.Stages
	if st.Fetch <= 0 || st.Preprocess <= 0 || st.Pass <= 0 {
		t.Errorf("SGX stages not all positive: %+v", st)
	}
	if st.Decrypt <= 0 || st.Verify <= 0 || st.Apply <= 0 || st.KeyGen <= 0 || st.Switch <= 0 {
		t.Errorf("SMM stages not all positive: %+v", st)
	}
	if st.PayloadBytes == 0 {
		t.Error("payload bytes = 0")
	}
	if st.SMMTotal() >= st.SGXTotal() {
		t.Errorf("SMM pause (%v) should be far below SGX prep (%v) for this size", st.SMMTotal(), st.SGXTotal())
	}

	res, err = e.Exploit(d.System.Kernel, 0)
	if err != nil {
		t.Fatal(err)
	}
	if res.Vulnerable {
		t.Errorf("kernel still vulnerable after patch: %s", res.Detail)
	}
	if got := d.System.Applied(); len(got) != 1 || got[0] != e.CVE {
		t.Errorf("Applied() = %v", got)
	}
	// The server received the deployment status (DoS handshake).
	sts := d.Server.Statuses()
	if st, ok := sts[string(attKeyOf(d))]; !ok || st.Authentic.Code != smmpatch.StatusBatchDone {
		t.Errorf("server statuses = %+v", sts)
	}
}

func TestApplyThenRollback(t *testing.T) {
	d := newDeployment(t, "3.14", 0, "CVE-2015-1333")
	e := d.Entries[0]

	if _, err := d.System.Apply(context.Background(), e.CVE); err != nil {
		t.Fatal(err)
	}
	res, err := e.Exploit(d.System.Kernel, 0)
	if err != nil || res.Vulnerable {
		t.Fatalf("patch ineffective: %+v, %v", res, err)
	}

	if _, err := d.System.Rollback(context.Background(), e.CVE); err != nil {
		t.Fatalf("Rollback: %v", err)
	}
	res, err = e.Exploit(d.System.Kernel, 0)
	if err != nil {
		t.Fatal(err)
	}
	if !res.Vulnerable {
		t.Error("rollback did not restore vulnerable behaviour")
	}
	if got := d.System.Applied(); len(got) != 0 {
		t.Errorf("Applied() after rollback = %v", got)
	}
	// Re-apply works after rollback.
	if _, err := d.System.Apply(context.Background(), e.CVE); err != nil {
		t.Fatalf("re-apply: %v", err)
	}
	res, _ = e.Exploit(d.System.Kernel, 0)
	if res.Vulnerable {
		t.Error("re-applied patch ineffective")
	}
}

func TestRollbackWithoutApply(t *testing.T) {
	d := newDeployment(t, "4.4", 0, "CVE-2014-7842")
	if _, err := d.System.Rollback(context.Background(), "CVE-2014-7842"); err == nil {
		t.Error("rollback with empty journal succeeded")
	}
}

func TestDuplicateApplyRejected(t *testing.T) {
	d := newDeployment(t, "4.4", 0, "CVE-2016-7916")
	if _, err := d.System.Apply(context.Background(), "CVE-2016-7916"); err != nil {
		t.Fatal(err)
	}
	if _, err := d.System.Apply(context.Background(), "CVE-2016-7916"); err == nil {
		t.Error("duplicate apply succeeded")
	}
}

func TestApplyUnknownCVE(t *testing.T) {
	d := newDeployment(t, "4.4", 0, "CVE-2016-7916")
	if _, err := d.System.Apply(context.Background(), "CVE-1999-0001"); err == nil {
		t.Error("unknown CVE applied")
	}
}

func TestSequentialPatches(t *testing.T) {
	d := newDeployment(t, "4.4", 0, "CVE-2014-0196", "CVE-2016-7916", "CVE-2017-17053")
	for _, e := range d.Entries {
		res, err := e.Exploit(d.System.Kernel, 0)
		if err != nil || !res.Vulnerable {
			t.Fatalf("%s not vulnerable pre-patch: %+v %v", e.CVE, res, err)
		}
		if _, err := d.System.Apply(context.Background(), e.CVE); err != nil {
			t.Fatalf("apply %s: %v", e.CVE, err)
		}
	}
	// All three fixed simultaneously.
	for _, e := range d.Entries {
		res, err := e.Exploit(d.System.Kernel, 0)
		if err != nil {
			t.Fatal(err)
		}
		if res.Vulnerable {
			t.Errorf("%s still vulnerable: %s", e.CVE, res.Detail)
		}
	}
	if got := d.System.Applied(); len(got) != 3 {
		t.Errorf("Applied() = %v", got)
	}
	// Only the most recent can be rolled back.
	if _, err := d.System.Rollback(context.Background(), d.Entries[0].CVE); err == nil {
		t.Error("out-of-order rollback succeeded")
	}
	if _, err := d.System.Rollback(context.Background(), d.Entries[2].CVE); err != nil {
		t.Errorf("in-order rollback failed: %v", err)
	}
}

func TestSDBMHashVariant(t *testing.T) {
	d := newDeployment(t, "4.4", kcrypto.HashSDBM, "CVE-2016-2543")
	e := d.Entries[0]
	rep, err := d.System.Apply(context.Background(), e.CVE)
	if err != nil {
		t.Fatal(err)
	}
	res, _ := e.Exploit(d.System.Kernel, 0)
	if res.Vulnerable {
		t.Error("SDBM-verified patch ineffective")
	}
	if rep.Stages.Verify <= 0 {
		t.Error("verify stage empty")
	}
}

func TestProtectDetectsAndRepairsReversion(t *testing.T) {
	d := newDeployment(t, "4.4", 0, "CVE-2014-0196")
	e := d.Entries[0]

	// Remember the original entry bytes the way a rootkit that
	// snapshotted the kernel would.
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
	// Clean introspection pass first.
	tampered, err := d.System.Protect()
	if err != nil {
		t.Fatal(err)
	}
	if tampered {
		t.Error("false positive tampering report")
	}

	// The rootkit reverts the patch at kernel privilege (§V-D's
	// malicious patch reversion).
	if err := d.System.Machine.Mem.Write(mem.PrivKernel, addr, orig); err != nil {
		t.Fatal(err)
	}
	res, _ := e.Exploit(d.System.Kernel, 0)
	if !res.Vulnerable {
		t.Fatal("reversion did not restore the vulnerability")
	}

	tampered, err = d.System.Protect()
	if err != nil {
		t.Fatal(err)
	}
	if !tampered {
		t.Error("introspection missed the reversion")
	}
	// The repair restored the trampoline.
	res, _ = e.Exploit(d.System.Kernel, 0)
	if res.Vulnerable {
		t.Error("introspection did not repair the patch")
	}
}

func TestApplyUnderConcurrentWorkload(t *testing.T) {
	d := newDeployment(t, "4.4", 0, "CVE-2016-5829")
	e := d.Entries[0]

	stop := make(chan struct{})
	var wg sync.WaitGroup
	for v := 0; v < d.System.Machine.NumVCPUs(); v++ {
		wg.Add(1)
		go func(vcpu int) {
			defer wg.Done()
			for i := uint64(0); ; i++ {
				select {
				case <-stop:
					return
				default:
				}
				if _, err := d.System.Kernel.Call(vcpu, "sys_compute", i, 3); err != nil {
					t.Errorf("workload on vcpu %d: %v", vcpu, err)
					return
				}
			}
		}(v)
	}
	if _, err := d.System.Apply(context.Background(), e.CVE); err != nil {
		t.Fatalf("apply under load: %v", err)
	}
	close(stop)
	wg.Wait()
	res, _ := e.Exploit(d.System.Kernel, 0)
	if res.Vulnerable {
		t.Error("patch under load ineffective")
	}
}

func TestHelperCannotReadPatchTraffic(t *testing.T) {
	// The staged package in mem_W is write-only for the helper and the
	// kernel: neither can read it back.
	d := newDeployment(t, "4.4", 0, "CVE-2014-0196")
	if _, err := d.System.Apply(context.Background(), "CVE-2014-0196"); err != nil {
		t.Fatal(err)
	}
	buf := make([]byte, 16)
	res := d.System.Kernel.Res
	if err := d.System.Machine.Mem.Read(mem.PrivUser, res.WBase(), buf); err == nil {
		t.Error("helper read staged package")
	}
	if err := d.System.Machine.Mem.Read(mem.PrivKernel, res.WBase(), buf); err == nil {
		t.Error("kernel read staged package")
	}
	// And mem_X payloads are execute-only.
	memX, _ := d.System.Handler.Cursors()
	if memX == 0 {
		t.Fatal("no mem_X usage recorded")
	}
	if err := d.System.Machine.Mem.Read(mem.PrivKernel, res.XBase(), buf); err == nil {
		t.Error("kernel read patched text in mem_X")
	}
}

func TestNewSystemErrors(t *testing.T) {
	if _, err := NewSystemCtx(context.Background(), Options{Version: "9.9", ServerAddr: "127.0.0.1:1"}); !errors.Is(err, options.ErrInvalid) {
		t.Errorf("bad version: err = %v, want options.ErrInvalid", err)
	}
	e, _ := cvebench.Get("CVE-2014-0196")
	opts := Options{Version: "4.4", ExtraFiles: map[string]string{e.File: e.Vuln}}

	// A dead server is not NewSystemCtx's concern: provisioning never
	// touches the network, and the fresh System owns no private frames.
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	opts.ServerAddr = ln.Addr().String()
	ln.Close()
	sys, err := NewSystemCtx(context.Background(), opts)
	if err != nil {
		t.Fatalf("NewSystemCtx with a dead server: %v", err)
	}
	defer sys.Close()
	if st := sys.Machine.Mem.ResidentStats(); st.PrivateBytes != 0 {
		t.Errorf("uncached System owns %d private bytes before first contact, want 0", st.PrivateBytes)
	}
	// First contact fails; once the server is up at that address, the
	// next Apply retries the attach instead of using a half-attached
	// System.
	if _, err := sys.Apply(context.Background(), e.CVE); err == nil {
		t.Fatal("Apply against a dead server succeeded")
	}
	live, err := patchserver.New(patchserver.WithListenAddr(opts.ServerAddr), patchserver.WithTreeProvider(cvebench.TreeProviderFor(e)))
	if err != nil {
		t.Fatal(err)
	}
	defer live.Close()
	live.RegisterPatch(e.SourcePatch())
	if _, err := sys.Apply(context.Background(), e.CVE); err != nil {
		t.Fatalf("Apply after the server came up: %v", err)
	}

	// A server that does not know the vulnerable subsystem cannot
	// patch it; Apply fails cleanly.
	srv, err := patchserver.New(patchserver.WithTreeProvider(cvebench.TreeProviderFor()))
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()
	srv.RegisterPatch(e.SourcePatch())
	opts.ServerAddr = srv.Addr()
	unknown, err := NewSystemCtx(context.Background(), opts)
	if err != nil {
		t.Fatal(err)
	}
	defer unknown.Close()
	if _, err := unknown.Apply(context.Background(), e.CVE); err == nil {
		t.Error("patch for unknown subsystem applied")
	} else if !strings.Contains(err.Error(), "unknown file") && err == nil {
		t.Errorf("unexpected error: %v", err)
	}
}

func TestDoSDetectionViaServerHandshake(t *testing.T) {
	d := newDeployment(t, "4.4", 0, "CVE-2014-0196")

	// Healthy flow: the server sees the deployment status promptly.
	if _, err := d.System.Apply(context.Background(), "CVE-2014-0196"); err != nil {
		t.Fatal(err)
	}
	key := string(attKeyOf(d))
	healthy := d.Server.Statuses()[key].Authentic.Seq
	if healthy == 0 {
		t.Fatal("server missed healthy deployment status")
	}

	// DoS: a kernel-level attacker suppresses the helper after the
	// fetch — the patch is never staged, no SMI fires, and no status
	// arrives, which is what the server's DoS detection looks for (§V-D).
	blob, err := fetchOnly(d)
	if err != nil {
		t.Fatal(err)
	}
	_ = blob // attacker drops it here
	sts := d.Server.Statuses()
	if got := sts[key].Authentic.Seq; len(sts) != 1 || got != healthy {
		t.Errorf("server saw a status for a suppressed deployment: %d keys, newest seq %d after %d", len(sts), got, healthy)
	}
}

// fetchOnly performs just the helper's fetch step.
func fetchOnly(d *testDeployment) ([]byte, error) {
	c, err := patchserver.Dial(context.Background(), d.Server.Addr())
	if err != nil {
		return nil, err
	}
	defer c.Close()
	meas := sgxMeasurement("4.4")
	attKey := make([]byte, 32) // the attacker's own, not the target's
	if _, err := c.HelloWithAttestation(patchserver.OSInfo{Version: "4.4", Ftrace: true, Inline: true}, meas, attKey); err != nil {
		return nil, err
	}
	rs, err := c.FetchPatches(context.Background(), []string{"CVE-2014-0196"})
	if err != nil {
		return nil, err
	}
	return rs[0].Blob, rs[0].Err
}

func sgxMeasurement(version string) sgx.Measurement {
	return sgx.MeasureIdentity(sgxprep.Identity(version))
}

func TestActivenessOptionEndToEnd(t *testing.T) {
	// With CheckActiveness on, a patch to a function currently running
	// on a vCPU is refused and can be retried once the call drains.
	entries := []*cvebench.Entry{mustGet(t, "CVE-2014-0196")}
	srv, err := patchserver.New(patchserver.WithTreeProvider(cvebench.TreeProviderFor(entries...)))
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(srv.Close)
	srv.RegisterPatch(entries[0].SourcePatch())
	sys, err := NewSystemCtx(context.Background(), Options{
		Version:         "4.4",
		NumVCPUs:        2,
		ExtraFiles:      map[string]string{entries[0].File: entries[0].Vuln},
		ServerAddr:      srv.Addr(),
		CheckActiveness: true,
	})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(sys.Close)
	// Idle machine: the check passes and the patch lands.
	if _, err := sys.Apply(context.Background(), entries[0].CVE); err != nil {
		t.Fatalf("idle apply with activeness: %v", err)
	}
	res, _ := entries[0].Exploit(sys.Kernel, 0)
	if res.Vulnerable {
		t.Error("patch ineffective under activeness checking")
	}
}

func TestWatchKernelTextViaSystem(t *testing.T) {
	d := newDeployment(t, "4.4", 0, "CVE-2014-0196")
	if err := d.System.WatchKernelText(); err != nil {
		t.Fatal(err)
	}
	// Own patch: no tampering flagged.
	if _, err := d.System.Apply(context.Background(), "CVE-2014-0196"); err != nil {
		t.Fatal(err)
	}
	tampered, err := d.System.Protect()
	if err != nil {
		t.Fatal(err)
	}
	if tampered {
		t.Error("own patch flagged by text watch")
	}
	// Rootkit modifies an unrelated function: flagged.
	addr, err := d.System.Kernel.FuncAddr("schedule_tick")
	if err != nil {
		t.Fatal(err)
	}
	if err := d.System.Machine.Mem.Write(mem.PrivKernel, addr+6, []byte{0x90}); err != nil {
		t.Fatal(err)
	}
	tampered, err = d.System.Protect()
	if err != nil {
		t.Fatal(err)
	}
	if !tampered {
		t.Error("foreign text modification missed by watch")
	}
}

func mustGet(t *testing.T, id string) *cvebench.Entry {
	t.Helper()
	e, ok := cvebench.Get(id)
	if !ok {
		t.Fatalf("unknown CVE %s", id)
	}
	return e
}

func TestStatusAttestationAuthenticity(t *testing.T) {
	d := newDeployment(t, "4.4", 0, "CVE-2014-0196")

	// A genuine deployment produces an authentic status at the server.
	if _, err := d.System.Apply(context.Background(), "CVE-2014-0196"); err != nil {
		t.Fatal(err)
	}
	key := string(attKeyOf(d))
	genuine := d.Server.Statuses()[key]
	if genuine.Authentic.Seq == 0 || genuine.Forgeries != 0 {
		t.Fatalf("genuine status not authentic: %+v", genuine)
	}

	// The attacker forges a "patched" confirmation: scribbles a status
	// record into the kernel-writable mailbox and forwards it. Without
	// the SMRAM-held attestation key the MAC cannot be produced, so
	// the server sees an inauthentic report.
	forged := make([]byte, 4+8+64)
	forged[0] = byte(smmpatch.StatusPatched)
	forged[4] = 99 // seq
	res := d.System.Kernel.Res
	if err := d.System.Machine.Mem.Write(mem.PrivKernel, res.RWBase()+0x8000, forged); err != nil {
		t.Fatal(err)
	}
	status, err := smmpatch.ReadStatusRecord(d.System.Machine.Mem, mem.PrivKernel, res)
	if err != nil {
		t.Fatal(err)
	}
	c, err := patchserver.Dial(context.Background(), d.Server.Addr())
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	// The forger re-registers with its own attestation key claim? No —
	// it must report on the existing registration path; simulate the
	// helper forwarding the forged mailbox over a fresh session that
	// registered the true key (the server's view of this target).
	if _, err := c.HelloWithAttestation(
		patchserver.OSInfo{Version: "4.4", Ftrace: true, Inline: true},
		sgxMeasurement("4.4"), attKeyOf(d)); err != nil {
		t.Fatal(err)
	}
	if err := c.ReportStatusMAC(context.Background(), status.Code, status.Seq, status.Digest, status.MAC[:]); err != nil {
		t.Fatal(err)
	}
	st := d.Server.Statuses()[key]
	if st.Authentic.Seq != genuine.Authentic.Seq || st.Forgeries != 1 || st.Forged.Seq != 99 {
		t.Errorf("forged status accepted as authentic: %+v", st)
	}
}

// attKeyOf returns the attestation key the deployment's System
// registered at hello, the key the server files its statuses under.
// No public API reaches it (SMM holds it in SMRAM); the test reads the
// System's copy.
func attKeyOf(d *testDeployment) []byte { return d.System.attKey }

func TestFleetOneServerManyTargets(t *testing.T) {
	// One patch server drives several target machines — the remote/
	// cloud deployment the paper's introduction motivates. Targets run
	// different kernel versions; each gets a correctly rebuilt patch.
	e := mustGet(t, "CVE-2016-7916")
	srv, err := patchserver.New(patchserver.WithTreeProvider(cvebench.TreeProviderFor(e)))
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(srv.Close)
	srv.RegisterPatch(e.SourcePatch())

	versions := []string{"3.14", "4.4", "4.4"}
	systems := make([]*System, len(versions))
	for i, v := range versions {
		sys, err := NewSystemCtx(context.Background(), Options{
			Version:    v,
			NumVCPUs:   1,
			ExtraFiles: map[string]string{e.File: e.Vuln},
			ServerAddr: srv.Addr(),
		})
		if err != nil {
			t.Fatalf("target %d (%s): %v", i, v, err)
		}
		t.Cleanup(sys.Close)
		systems[i] = sys
	}
	// Patch all targets concurrently.
	errs := make(chan error, len(systems))
	for _, sys := range systems {
		go func(sys *System) {
			_, err := sys.Apply(context.Background(), e.CVE)
			errs <- err
		}(sys)
	}
	for range systems {
		if err := <-errs; err != nil {
			t.Fatalf("fleet apply: %v", err)
		}
	}
	for i, sys := range systems {
		res, err := e.Exploit(sys.Kernel, 0)
		if err != nil {
			t.Fatal(err)
		}
		if res.Vulnerable {
			t.Errorf("target %d (%s) still vulnerable", i, versions[i])
		}
	}
	// The server saw an authentic confirmation from every target.
	authentic := 0
	for _, st := range srv.Statuses() {
		if st.Authentic.Code == smmpatch.StatusBatchDone {
			authentic++
		}
	}
	if authentic != len(systems) {
		t.Errorf("authentic confirmations = %d, want %d", authentic, len(systems))
	}
}
