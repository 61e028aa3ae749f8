package mem

import (
	"bytes"
	"errors"
	"testing"

	"kshot/internal/faultinject"
	"kshot/internal/obs"
)

func newReserved(t *testing.T) (*Physical, *Reserved) {
	t.Helper()
	m := New(64 << 20)
	res, err := MapReservedLayout(m, 0x100_0000, DefaultReservedLayout())
	if err != nil {
		t.Fatal(err)
	}
	return m, res
}

// An injected mem_W access fault rejects the helper's staging write
// exactly like a hardware permission fault, leaving memory untouched.
func TestInjectedMemWFault(t *testing.T) {
	m, res := newReserved(t)
	m.SetObserver(&obs.Hooks{Faults: faultinject.New(faultinject.Exact(
		faultinject.Fault{Point: faultinject.MemWFault, Call: 0},
	))})

	err := m.Write(PrivUser, res.WBase(), []byte("staged package"))
	var f *Fault
	if !errors.As(err, &f) {
		t.Fatalf("write error = %v, want *Fault", err)
	}
	if f.Region != RegionMemW {
		t.Fatalf("fault region %q, want %q", f.Region, RegionMemW)
	}
	// The scheduled fault fired once; the retried write succeeds.
	if err := m.Write(PrivUser, res.WBase(), []byte("staged package")); err != nil {
		t.Fatalf("second write: %v", err)
	}
}

// An injected corruption flips exactly one bit of the staged bytes —
// the caller's buffer stays intact, and SMM sees the corrupted copy.
func TestInjectedMemWCorruption(t *testing.T) {
	m, res := newReserved(t)
	m.SetObserver(&obs.Hooks{Faults: faultinject.New(faultinject.Exact(
		faultinject.Fault{Point: faultinject.MemWCorrupt, Call: 0, Bit: 9},
	))})

	src := bytes.Repeat([]byte{0xA5}, 16)
	orig := append([]byte(nil), src...)
	if err := m.Write(PrivKernel, res.WBase(), src); err != nil {
		t.Fatalf("write: %v", err)
	}
	if !bytes.Equal(src, orig) {
		t.Fatal("injection mutated the caller's buffer")
	}

	got := make([]byte, 16)
	if err := m.Read(PrivSMM, res.WBase(), got); err != nil {
		t.Fatalf("SMM read: %v", err)
	}
	diff := 0
	for i := range got {
		b := got[i] ^ orig[i]
		for ; b != 0; b &= b - 1 {
			diff++
		}
	}
	if diff != 1 {
		t.Fatalf("%d bits differ in memory, want exactly 1", diff)
	}
}

// SMM's own writes into mem_W are exempt: the handler is trusted
// firmware, not part of the hostile hand-off surface.
func TestInjectionExemptsSMMWrites(t *testing.T) {
	m, res := newReserved(t)
	fi := faultinject.New(faultinject.Exact(
		faultinject.Fault{Point: faultinject.MemWFault, Call: 0},
		faultinject.Fault{Point: faultinject.MemWCorrupt, Call: 0},
	))
	m.SetObserver(&obs.Hooks{Faults: fi})

	src := []byte{1, 2, 3, 4}
	if err := m.Write(PrivSMM, res.WBase(), src); err != nil {
		t.Fatalf("SMM write: %v", err)
	}
	got := make([]byte, 4)
	if err := m.Read(PrivSMM, res.WBase(), got); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, src) {
		t.Fatalf("SMM write corrupted: %v", got)
	}
	if fi.Calls(faultinject.MemWFault) != 0 {
		t.Fatal("SMM write consulted the injector")
	}
}

// Writes outside mem_W never consult the injector, and removing the
// injector restores clean behavior.
func TestInjectionScopedToMemW(t *testing.T) {
	m, res := newReserved(t)
	fi := faultinject.New(faultinject.Exact(
		faultinject.Fault{Point: faultinject.MemWFault, Call: 0},
	))
	m.SetObserver(&obs.Hooks{Faults: fi})

	if err := m.Write(PrivKernel, res.RWBase(), []byte{7}); err != nil {
		t.Fatalf("mem_RW write consulted mem_W injection: %v", err)
	}
	if fi.Calls(faultinject.MemWFault) != 0 {
		t.Fatal("non-mem_W write advanced the injector")
	}

	m.SetObserver(nil)
	if err := m.Write(PrivUser, res.WBase(), []byte{7}); err != nil {
		t.Fatalf("write after removing injector: %v", err)
	}
}
