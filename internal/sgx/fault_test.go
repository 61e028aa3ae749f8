package sgx

import (
	"errors"
	"testing"

	"kshot/internal/faultinject"
	"kshot/internal/mem"
	"kshot/internal/obs"
)

// An injected ECALL failure is a plain error that unwraps to the
// injection sentinel; the enclave survives and serves the next call.
func TestInjectedECallFailure(t *testing.T) {
	_, p := newTestPlatform(t)
	e, err := p.Load(&counterProg{}, 2)
	if err != nil {
		t.Fatal(err)
	}
	p.SetObserver(&obs.Hooks{Faults: faultinject.New(faultinject.Exact(
		faultinject.Fault{Point: faultinject.SGXECallFail, Call: 0},
	))})

	if _, err := e.ECall(1, []byte{1}); !errors.Is(err, faultinject.ErrInjected) {
		t.Fatalf("ECall error = %v, want injected failure", err)
	}
	out, err := e.ECall(1, []byte{1})
	if err != nil {
		t.Fatalf("ECall after injected failure: %v", err)
	}
	if out[0] != 1 {
		t.Fatalf("counter = %d, want 1 (failed call must not run)", out[0])
	}
}

// An injected destroy at the ECALL boundary scrubs the enclave and
// surfaces ErrDestroyed — the exact failure callers' reload paths must
// absorb.
func TestInjectedEnclaveDestroy(t *testing.T) {
	phys, p := newTestPlatform(t)
	e, err := p.Load(&counterProg{}, 2)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := e.ECall(1, []byte{5}); err != nil {
		t.Fatal(err)
	}

	p.SetObserver(&obs.Hooks{Faults: faultinject.New(faultinject.Exact(
		faultinject.Fault{Point: faultinject.SGXDestroy, Call: 1},
	))})
	if _, err := e.ECall(1, []byte{1}); err != nil { // call 0: untouched
		t.Fatal(err)
	}
	if _, err := e.ECall(1, []byte{1}); !errors.Is(err, ErrDestroyed) {
		t.Fatalf("ECall error = %v, want ErrDestroyed", err)
	}
	// Destruction is permanent for this instance and the EPC was
	// scrubbed (EREMOVE semantics are preserved by the injection).
	if _, err := e.ECall(1, []byte{1}); !errors.Is(err, ErrDestroyed) {
		t.Fatalf("destroyed enclave answered: %v", err)
	}
	buf := make([]byte, 8)
	if err := phys.Read(mem.PrivEnclave, e.Base(), buf); err != nil {
		t.Fatal(err)
	}
	for _, b := range buf {
		if b != 0 {
			t.Fatalf("EPC not scrubbed after injected destroy: %v", buf)
		}
	}

	// A fresh load on the same platform works: the pages were freed.
	e2, err := p.Load(&counterProg{}, 2)
	if err != nil {
		t.Fatalf("reload after injected destroy: %v", err)
	}
	if out, err := e2.ECall(1, []byte{3}); err != nil || out[0] != 3 {
		t.Fatalf("reloaded enclave: out=%v err=%v", out, err)
	}
}
