package smmpatch

import (
	"bytes"
	"testing"

	"kshot/internal/mem"
	"kshot/internal/sgxprep"
	"kshot/internal/timing"
)

// The SGX↔SMM channel: the handler and the enclave share a 32-byte
// channel root and derive per-package session keys from (root, SMM
// nonce, enclave salt). The rig's sealPackage plays the enclave's
// seal.

var testRoot = bytes.Repeat([]byte{0x42}, 32)

// TestSessionRootAppliesPatch applies two patches back to back: the
// nonce each SMI publishes on its way out keys the next package, so
// steady-state patching needs no further key-exchange SMI, and every
// package charges the model's per-patch key-generation cost.
func TestSessionRootAppliesPatch(t *testing.T) {
	r := newRig(t)
	rollback, err := rollbackWire("RIG-ROOT-1")
	if err != nil {
		t.Fatal(err)
	}
	for _, wire := range [][]byte{r.wirePatch(t, "RIG-ROOT-1"), rollback} {
		r.sealPackage(t, wire)
		if err := r.process(t); err != nil {
			t.Fatalf("process: %v", err)
		}
		if bd := r.h.Outcomes()[0]; bd.KeyGen != timing.Calibrated().KeyGen {
			t.Errorf("KeyGen charge = %v, want %v", bd.KeyGen, timing.Calibrated().KeyGen)
		}
	}
	if got := r.h.Applied(); len(got) != 0 {
		t.Errorf("journal = %v after apply + rollback", got)
	}
	if v, err := r.k.Call(0, "gadget", 0xdead); err != nil || v != 99 {
		t.Fatalf("post-rollback gadget = %d, %v", v, err)
	}
}

func TestSessionRootNonceRotates(t *testing.T) {
	r := newRig(t)
	n1, err := ReadSMMPub(r.m.Mem, mem.PrivKernel, r.k.Res)
	if err != nil {
		t.Fatal(err)
	}
	r.sealPackage(t, r.wirePatch(t, "RIG-ROOT-1"))
	if err := r.process(t); err != nil {
		t.Fatal(err)
	}
	n2, err := ReadSMMPub(r.m.Mem, mem.PrivKernel, r.k.Res)
	if err != nil {
		t.Fatal(err)
	}
	if bytes.Equal(n1, n2) {
		t.Fatal("SMM nonce did not rotate across the SMI")
	}
}

// TestSessionRootReplayRejected seals a package under another
// System's root — what a sibling fork's enclave would produce against
// this handler's current nonce — and requires the handler to reject
// it: roots are per System, so packages never cross between targets.
func TestSessionRootReplayRejected(t *testing.T) {
	r := newRig(t)
	sibling := bytes.Repeat([]byte{0x43}, 32)
	r.sealPackageUnder(t, sibling, r.wirePatch(t, "RIG-ROOT-1"))
	if err := r.process(t); err == nil {
		t.Fatal("package sealed under a sibling's root accepted")
	}
	if v, _ := r.k.Call(0, "gadget", 0xdead); v != 99 {
		t.Error("cross-root package had an effect")
	}
	// The failed attempt consumed the nonce like any other; the
	// handler's own root still works on the fresh one.
	r.sealPackage(t, r.wirePatch(t, "RIG-ROOT-1"))
	if err := r.process(t); err != nil {
		t.Fatalf("own-root package after rejection: %v", err)
	}
}

func TestSessionRootEmptySaltRejected(t *testing.T) {
	r := newRig(t)
	// Stage a package with a zero-length salt blob: the handler must
	// refuse it rather than derive from an empty peer contribution.
	m := r.sealMember(t, testRoot, r.wirePatch(t, "RIG-ROOT-1"))
	m.EnclavePub = nil
	r.stage(t, m)
	if err := r.process(t); err == nil {
		t.Fatal("empty-salt package accepted")
	}
}

// TestSessionRootLengthValidated requires both channel endpoints to
// refuse any root that is not exactly 32 bytes, a missing one
// included: there is no keyless or Diffie-Hellman fallback.
func TestSessionRootLengthValidated(t *testing.T) {
	roots := map[string][]byte{
		"nil":     nil,
		"empty":   {},
		"3-byte":  {1, 2, 3},
		"33-byte": bytes.Repeat([]byte{1}, 33),
	}
	for name, root := range roots {
		if _, err := New(Config{Reserved: mustReserved(t), KernelVersion: "4.4", SessionRoot: root}); err == nil {
			t.Errorf("smmpatch.New accepted a %s session root", name)
		}
		if _, err := sgxprep.New(sgxprep.Config{ServerKey: make([]byte, 32), KernelVersion: "4.4", SessionRoot: root}); err == nil {
			t.Errorf("sgxprep.New accepted a %s session root", name)
		}
	}
	if _, err := New(Config{Reserved: mustReserved(t), KernelVersion: "4.4", SessionRoot: testRoot}); err != nil {
		t.Errorf("smmpatch.New rejected a 32-byte root: %v", err)
	}
	if _, err := sgxprep.New(sgxprep.Config{ServerKey: make([]byte, 32), KernelVersion: "4.4", SessionRoot: testRoot}); err != nil {
		t.Errorf("sgxprep.New rejected a 32-byte root: %v", err)
	}
}

// mustReserved maps a reserved window on a scratch Physical.
func mustReserved(t *testing.T) *mem.Reserved {
	t.Helper()
	m := mem.New(1 << 28)
	res, err := mem.MapReservedLayout(m, 0x10000, mem.DefaultReservedLayout())
	if err != nil {
		t.Fatal(err)
	}
	return res
}
