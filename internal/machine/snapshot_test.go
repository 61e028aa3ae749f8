package machine

import (
	"errors"
	"testing"

	"kshot/internal/mem"
)

func TestMachineSnapshotRestore(t *testing.T) {
	m, img := newTestMachine(t, 2)
	bump := entry(t, img, "bump")
	counter, ok := img.Symbols.Lookup("counter")
	if !ok {
		t.Fatal("no counter symbol")
	}

	if _, err := m.VCPU(0).Call(bump, 1000); err != nil {
		t.Fatal(err)
	}
	m.Pause()
	snap := m.Snapshot()
	m.Resume()

	// Diverge: more bumps, scribble over vCPU 1's register file.
	for i := 0; i < 3; i++ {
		if _, err := m.VCPU(1).Call(bump, 1000); err != nil {
			t.Fatal(err)
		}
	}

	m.Pause()
	if err := m.RestoreSnapshot(snap); err != nil {
		t.Fatal(err)
	}
	m.Resume()
	v, err := m.Mem.ReadU64(mem.PrivKernel, counter.Addr)
	if err != nil {
		t.Fatal(err)
	}
	if v != 1 {
		t.Fatalf("counter after restore = %d, want 1", v)
	}
	// The machine keeps working after a restore.
	if _, err := m.VCPU(1).Call(bump, 1000); err != nil {
		t.Fatal(err)
	}
	if v, _ := m.Mem.ReadU64(mem.PrivKernel, counter.Addr); v != 2 {
		t.Fatalf("counter after post-restore bump = %d, want 2", v)
	}

	if err := m.RestoreSnapshot(nil); err == nil {
		t.Fatal("nil snapshot accepted")
	}
}

// BenchmarkMachineNew measures machine construction — the dominant
// cost of every evaluation iteration. With the sparse store this no
// longer zeroes 256 MB of backing memory.
func BenchmarkMachineNew(b *testing.B) {
	for i := 0; i < b.N; i++ {
		m, err := New(Config{})
		if err != nil {
			b.Fatal(err)
		}
		m.Stop()
	}
}

// RestoreSnapshot rewinds memory and vCPU state to the capture. The
// snapshot stays valid and can be restored again.
func (m *Machine) RestoreSnapshot(s *Snapshot) error {
	if s == nil {
		return errors.New("machine: nil snapshot")
	}
	if err := m.Mem.Restore(s.Mem); err != nil {
		return err
	}
	return m.RestoreStates(s.States)
}
