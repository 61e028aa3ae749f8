package core

import (
	"context"
	"testing"

	"kshot/internal/faultinject"
	"kshot/internal/introspect"
	"kshot/internal/kcrypto"
	"kshot/internal/mem"
	"kshot/internal/smmpatch"
)

// introspectedRun provisions a 2-vCPU System with an event buffer of
// the given capacity, applies one CVE, runs one guest call on each
// vCPU (each call dispatches code the apply changed), and returns the
// System and the kernel-text address a later tamper writes.
func introspectedRun(t *testing.T, capacity int) (*System, uint64) {
	t.Helper()
	d := newDeployment(t, "4.4", kcrypto.HashSHA256, "CVE-2014-0196")
	s := d.System
	if err := s.EnableIntrospection(introspect.Config{Capacity: capacity}); err != nil {
		t.Fatal(err)
	}
	if _, err := s.Apply(context.Background(), d.Entries[0].CVE); err != nil {
		t.Fatal(err)
	}
	for v := 0; v < s.Machine.NumVCPUs(); v++ {
		if _, err := s.Kernel.Call(v, "sys_compute", uint64(v), 3); err != nil {
			t.Fatalf("call on vcpu %d: %v", v, err)
		}
	}
	addr, err := s.Kernel.FuncAddr(d.Entries[0].Functions[0])
	if err != nil {
		t.Fatal(err)
	}
	return s, addr
}

// readKind reports whether the Detector or an adversary tap reads
// events of kind k.
func readKind(k introspect.Kind) bool {
	return k == introspect.KindExecWrite || k == introspect.KindSMIEnter || k == introspect.KindSMIExit
}

// TestIntrospectionBuffersOnlyReadKinds: the event buffer carries only
// the kinds its consumers read, so a buffer sized for exactly the
// exec-write and SMI events of an apply plus the guest calls after it,
// plus one, still holds a later tamper write's event, and the verdict
// names its address. A buffer that also took the vCPU engines'
// cache-flush events would fill first and lose the address.
func TestIntrospectionBuffersOnlyReadKinds(t *testing.T) {
	s, addr := introspectedRun(t, 0)
	ch := s.IntrospectionEvents()
	n := 0
	for _, ev := range ch.Drain(nil) {
		if !readKind(ev.Kind) {
			t.Errorf("buffered a %v event (seq %d), which no consumer reads", ev.Kind, ev.Seq)
			continue
		}
		n++
	}
	if n == 0 {
		t.Fatal("apply buffered no exec-write or SMI events")
	}
	if err := s.Machine.Mem.Write(mem.PrivKernel, addr, []byte{0xCC}); err != nil {
		t.Fatal(err)
	}
	evs := ch.Drain(nil)
	if len(evs) != 1 || evs[0].Kind != introspect.KindExecWrite || evs[0].Addr != addr {
		t.Fatalf("tamper buffered %+v, want one exec-write at %#x", evs, addr)
	}

	s, addr = introspectedRun(t, n+1)
	if err := s.Machine.Mem.Write(mem.PrivKernel, addr, []byte{0xCC}); err != nil {
		t.Fatal(err)
	}
	if st := s.IntrospectionEvents().Stats(); st.Dropped != 0 {
		t.Errorf("capacity %d dropped %d events", n+1, st.Dropped)
	}
	var tamper *introspect.Verdict
	for _, v := range s.Introspection().Sweep() {
		if v.Kind == introspect.TamperDetected {
			tamper = &v
		}
	}
	if tamper == nil {
		t.Fatal("no TamperDetected verdict for the out-of-SMI write")
	}
	if tamper.Addr != addr {
		t.Fatalf("verdict addr = %#x, want %#x (the write's event was dropped): %s", tamper.Addr, addr, tamper.Detail)
	}
}

// TestRefusedSMIRetractsAnnouncement: the pipeline announces its
// package SMI to the detector before raising it. When the chipset
// refuses that SMI, no SMI-enter follows, so the announcement must be
// withdrawn; otherwise it absorbs the next unannounced package SMI and
// a replay of the still-staged directory goes unnamed.
func TestRefusedSMIRetractsAnnouncement(t *testing.T) {
	d := newDeployment(t, "4.4", kcrypto.HashSHA256, "CVE-2014-0196")
	s := d.System
	if err := s.EnableIntrospection(introspect.Config{}); err != nil {
		t.Fatal(err)
	}
	ctx := context.Background()
	if err := s.Attach(ctx); err != nil {
		t.Fatal(err)
	}
	s.SetObserver(faultHooks(faultinject.New(faultinject.Exact(faultinject.Fault{Point: faultinject.SMMRefuse, Call: 0}))))
	if _, err := s.Apply(ctx, d.Entries[0].CVE); err == nil {
		t.Fatal("Apply succeeded over a refused package SMI")
	}
	if vs := s.Introspection().Sweep(); len(vs) != 0 {
		t.Fatalf("refused SMI raised verdicts %v", vs)
	}

	// Replay the staged directory with a package SMI nobody announced.
	_ = s.SMM.Trigger(smmpatch.CmdProcessPackage, 0)
	for _, v := range s.Introspection().Sweep() {
		if v.Kind == introspect.StalePatchReplay {
			return
		}
	}
	t.Fatal("unannounced package SMI after a refused one raised no StalePatchReplay")
}
