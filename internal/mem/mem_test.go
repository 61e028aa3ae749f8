package mem

import (
	"bytes"
	"errors"
	"testing"
	"testing/quick"
)

func newTestMem(t *testing.T) *Physical {
	t.Helper()
	return New(64 << 20)
}

func mustMap(t *testing.T, m *Physical, name string, base, size uint64, ps Perms) *Region {
	t.Helper()
	r, err := m.Map(name, base, size, ps)
	if err != nil {
		t.Fatalf("map %s: %v", name, err)
	}
	return r
}

func TestReadWriteRoundTrip(t *testing.T) {
	m := newTestMem(t)
	mustMap(t, m, "ram", 0, 1<<20, Perms{Kernel: PermRW})

	want := []byte{1, 2, 3, 4, 5}
	if err := m.Write(PrivKernel, 0x100, want); err != nil {
		t.Fatalf("write: %v", err)
	}
	got := make([]byte, len(want))
	if err := m.Read(PrivKernel, 0x100, got); err != nil {
		t.Fatalf("read: %v", err)
	}
	if !bytes.Equal(got, want) {
		t.Errorf("read back %v, want %v", got, want)
	}
}

func TestPermissionDenied(t *testing.T) {
	m := newTestMem(t)
	mustMap(t, m, "text", 0, 4096, Perms{Kernel: PermR | PermX, User: PermX, SMM: PermRWX})

	tests := []struct {
		name   string
		op     func() error
		wantOK bool
	}{
		{"kernel read", func() error { return m.Read(PrivKernel, 0, make([]byte, 4)) }, true},
		{"kernel write", func() error { return m.Write(PrivKernel, 0, []byte{1}) }, false},
		{"kernel exec", func() error { return m.Fetch(PrivKernel, 0, make([]byte, 1)) }, true},
		{"user read", func() error { return m.Read(PrivUser, 0, make([]byte, 4)) }, false},
		{"user exec", func() error { return m.Fetch(PrivUser, 0, make([]byte, 1)) }, true},
		{"smm write", func() error { return m.Write(PrivSMM, 0, []byte{1}) }, true},
		{"enclave read", func() error { return m.Read(PrivEnclave, 0, make([]byte, 4)) }, false},
	}
	for _, tt := range tests {
		t.Run(tt.name, func(t *testing.T) {
			err := tt.op()
			if tt.wantOK && err != nil {
				t.Errorf("unexpected fault: %v", err)
			}
			if !tt.wantOK {
				var f *Fault
				if !errors.As(err, &f) {
					t.Errorf("want *Fault, got %v", err)
				}
			}
		})
	}
}

func TestFaultDetails(t *testing.T) {
	m := newTestMem(t)
	mustMap(t, m, "secret", 0x1000, 4096, Perms{SMM: PermRWX})

	err := m.Read(PrivKernel, 0x1800, make([]byte, 8))
	var f *Fault
	if !errors.As(err, &f) {
		t.Fatalf("want fault, got %v", err)
	}
	if f.Region != "secret" || f.Priv != PrivKernel || f.Access != Read {
		t.Errorf("fault = %+v, want region secret, kernel read", f)
	}

	err = m.Read(PrivKernel, 0x10_0000, make([]byte, 8))
	if !errors.As(err, &f) || f.Region != "" {
		t.Errorf("unmapped access: got %v, want unmapped fault", err)
	}
}

func TestUnmappedAndOutOfBounds(t *testing.T) {
	m := New(4096)
	if err := m.Read(PrivSMM, 0, make([]byte, 1)); err == nil {
		t.Error("read of unmapped memory succeeded")
	}
	mustMap(t, m, "all", 0, 4096, Perms{SMM: PermRWX})
	if err := m.Read(PrivSMM, 4090, make([]byte, 16)); err == nil {
		t.Error("out-of-bounds read succeeded")
	}
	if err := m.Read(PrivSMM, ^uint64(0)-4, make([]byte, 16)); err == nil {
		t.Error("overflowing read succeeded")
	}
}

func TestSpanningRegions(t *testing.T) {
	m := newTestMem(t)
	mustMap(t, m, "a", 0, 4096, Perms{Kernel: PermRW})
	mustMap(t, m, "b", 4096, 4096, Perms{Kernel: PermRW})

	data := make([]byte, 128)
	for i := range data {
		data[i] = byte(i)
	}
	if err := m.Write(PrivKernel, 4096-64, data); err != nil {
		t.Fatalf("spanning write: %v", err)
	}
	got := make([]byte, 128)
	if err := m.Read(PrivKernel, 4096-64, got); err != nil {
		t.Fatalf("spanning read: %v", err)
	}
	if !bytes.Equal(got, data) {
		t.Error("spanning read mismatch")
	}

	// Span into a forbidden region: no partial effects allowed.
	mustMap(t, m, "x", 8192, 4096, Perms{Kernel: PermX})
	marker := []byte{0xAA}
	if err := m.Write(PrivKernel, 8190, marker); err != nil {
		t.Fatalf("pre-write: %v", err)
	}
	if err := m.Write(PrivKernel, 8190, []byte{1, 2, 3, 4}); err == nil {
		t.Fatal("write spanning into X-only region succeeded")
	}
	got1 := make([]byte, 1)
	if err := m.Read(PrivKernel, 8190, got1); err != nil {
		t.Fatalf("read back: %v", err)
	}
	if got1[0] != 0xAA {
		t.Error("failed spanning write had partial effect")
	}
}

func TestMapOverlapRejected(t *testing.T) {
	m := newTestMem(t)
	mustMap(t, m, "a", 0x1000, 0x1000, Perms{})
	cases := []struct{ base, size uint64 }{
		{0x1000, 0x1000}, // exact
		{0x800, 0x1000},  // straddles start
		{0x1800, 0x1000}, // straddles end
		{0x1400, 0x100},  // inside
		{0x0, 0x4000},    // encloses
	}
	for _, c := range cases {
		if _, err := m.Map("b", c.base, c.size, Perms{}); err == nil {
			t.Errorf("overlapping map [%#x,+%#x) succeeded", c.base, c.size)
		}
	}
	// Adjacent is fine.
	if _, err := m.Map("c", 0x2000, 0x1000, Perms{}); err != nil {
		t.Errorf("adjacent map failed: %v", err)
	}
}

func TestMapValidation(t *testing.T) {
	m := New(4096)
	if _, err := m.Map("zero", 0, 0, Perms{}); err == nil {
		t.Error("zero-size map succeeded")
	}
	if _, err := m.Map("oob", 4000, 4096, Perms{}); err == nil {
		t.Error("out-of-bounds map succeeded")
	}
	if _, err := m.Map("wrap", ^uint64(0)-10, 100, Perms{}); err == nil {
		t.Error("wrapping map succeeded")
	}
}

func TestSetPerms(t *testing.T) {
	m := newTestMem(t)
	mustMap(t, m, "smram", 0, 4096, Perms{Kernel: PermRW, SMM: PermRWX})
	if err := m.Write(PrivKernel, 0, []byte{1}); err != nil {
		t.Fatalf("pre-lock write: %v", err)
	}
	// Lock: drop kernel access, as firmware locks SMRAM at boot.
	if err := m.SetPerms("smram", Perms{SMM: PermRWX}); err != nil {
		t.Fatalf("set perms: %v", err)
	}
	if err := m.Write(PrivKernel, 0, []byte{2}); err == nil {
		t.Error("post-lock kernel write succeeded")
	}
	if err := m.Write(PrivSMM, 0, []byte{2}); err != nil {
		t.Errorf("post-lock SMM write failed: %v", err)
	}
	if err := m.SetPerms("nosuch", Perms{}); err == nil {
		t.Error("set perms on missing region succeeded")
	}
}

func TestRegionLookup(t *testing.T) {
	m := newTestMem(t)
	mustMap(t, m, "a", 0x1000, 0x1000, Perms{})
	mustMap(t, m, "b", 0x3000, 0x1000, Perms{})

	if r := m.Region("a"); r == nil || r.Base != 0x1000 {
		t.Errorf("Region(a) = %+v", r)
	}
	if r := m.Region("nope"); r != nil {
		t.Errorf("Region(nope) = %+v, want nil", r)
	}
	if a := m.Region("a"); !a.Contains(0x1fff) || a.Contains(0x2000) {
		t.Error("Contains boundary wrong")
	}
}

func TestU64Helpers(t *testing.T) {
	m := newTestMem(t)
	mustMap(t, m, "ram", 0, 4096, Perms{Kernel: PermRW})
	const v = 0x1122_3344_5566_7788
	if err := m.WriteU64(PrivKernel, 64, v); err != nil {
		t.Fatalf("WriteU64: %v", err)
	}
	got, err := m.ReadU64(PrivKernel, 64)
	if err != nil || got != v {
		t.Fatalf("ReadU64 = %#x, %v; want %#x", got, err, uint64(v))
	}
	// Verify little-endian layout.
	b := make([]byte, 8)
	if err := m.Read(PrivKernel, 64, b); err != nil {
		t.Fatal(err)
	}
	if b[0] != 0x88 || b[7] != 0x11 {
		t.Errorf("not little-endian: % x", b)
	}
	if _, err := m.ReadU64(PrivUser, 64); err == nil {
		t.Error("user ReadU64 succeeded")
	}
}

func TestReservedLayout(t *testing.T) {
	m := New(256 << 20)
	res, err := MapReservedLayout(m, 128<<20, DefaultReservedLayout())
	if err != nil {
		t.Fatalf("MapReserved: %v", err)
	}
	if res.RW.Size+res.W.Size+res.X.Size != ReservedTotalSize {
		t.Errorf("parts sum to %d, want %d (18MB)", res.RW.Size+res.W.Size+res.X.Size, ReservedTotalSize)
	}
	if res.W.Base != res.RW.End() || res.X.Base != res.W.End() {
		t.Error("reserved parts not contiguous")
	}

	// Paper §V-B access matrix, kernel's view:
	// mem_RW: read+write; mem_W: write only; mem_X: execute only.
	check := func(desc string, err error, wantOK bool) {
		t.Helper()
		if wantOK && err != nil {
			t.Errorf("%s: unexpected fault %v", desc, err)
		}
		if !wantOK && err == nil {
			t.Errorf("%s: access allowed, want fault", desc)
		}
	}
	buf := make([]byte, 8)
	check("kernel read mem_RW", m.Read(PrivKernel, res.RWBase(), buf), true)
	check("kernel write mem_RW", m.Write(PrivKernel, res.RWBase(), buf), true)
	check("kernel write mem_W", m.Write(PrivKernel, res.WBase(), buf), true)
	check("kernel read mem_W", m.Read(PrivKernel, res.WBase(), buf), false)
	check("kernel exec mem_X", m.Fetch(PrivKernel, res.XBase(), buf), true)
	check("kernel read mem_X", m.Read(PrivKernel, res.XBase(), buf), false)
	check("kernel write mem_X", m.Write(PrivKernel, res.XBase(), buf), false)
	// SMM has full access to all three.
	check("smm read mem_X", m.Read(PrivSMM, res.XBase(), buf), true)
	check("smm write mem_X", m.Write(PrivSMM, res.XBase(), buf), true)

	if _, err := MapReservedLayout(m, 1234, DefaultReservedLayout()); err == nil {
		t.Error("unaligned MapReserved succeeded")
	}
}

func TestStringers(t *testing.T) {
	if PrivKernel.String() != "kernel" || PrivSMM.String() != "smm" {
		t.Error("Priv.String wrong")
	}
	if Priv(99).String() == "" || Access(99).String() == "" {
		t.Error("unknown stringers empty")
	}
	if PermRWX.String() != "rwx" || PermNone.String() != "---" || (PermR|PermX).String() != "r-x" {
		t.Error("Perm.String wrong")
	}
	if Read.String() != "read" || Write.String() != "write" || Execute.String() != "execute" {
		t.Error("Access.String wrong")
	}
}

// Property: a write at any in-range offset with any payload reads back
// identically, and never succeeds for a privilege the region forbids.
func TestQuickWriteReadIdentity(t *testing.T) {
	m := New(1 << 20)
	if _, err := m.Map("rw", 0, 1<<20, Perms{Kernel: PermRW}); err != nil {
		t.Fatal(err)
	}
	f := func(off uint16, payload []byte) bool {
		addr := uint64(off)
		if len(payload) == 0 || addr+uint64(len(payload)) > 1<<20 {
			return true
		}
		if err := m.Write(PrivKernel, addr, payload); err != nil {
			return false
		}
		got := make([]byte, len(payload))
		if err := m.Read(PrivKernel, addr, got); err != nil {
			return false
		}
		if !bytes.Equal(got, payload) {
			return false
		}
		// The same bytes must be invisible to a user-level reader.
		return m.Read(PrivUser, addr, got) != nil
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Error(err)
	}
}

// Property: permission checks are total — for every (priv, access) pair
// the region's declared permission alone decides the outcome.
func TestQuickPermissionMatrix(t *testing.T) {
	f := func(user, kernel, enclave, smm uint8) bool {
		m := New(4096)
		ps := Perms{
			User:    Perm(user) & PermRWX,
			Kernel:  Perm(kernel) & PermRWX,
			Enclave: Perm(enclave) & PermRWX,
			SMM:     Perm(smm) & PermRWX,
		}
		if _, err := m.Map("r", 0, 4096, ps); err != nil {
			return false
		}
		perms := map[Priv]Perm{
			PrivUser: ps.User, PrivKernel: ps.Kernel,
			PrivEnclave: ps.Enclave, PrivSMM: ps.SMM,
		}
		buf := make([]byte, 1)
		for priv, perm := range perms {
			if (m.Read(priv, 0, buf) == nil) != (perm&PermR != 0) {
				return false
			}
			if (m.Write(priv, 0, buf) == nil) != (perm&PermW != 0) {
				return false
			}
			if (m.Fetch(priv, 0, buf) == nil) != (perm&PermX != 0) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Error(err)
	}
}

func TestConcurrentAccess(t *testing.T) {
	m := New(1 << 20)
	if _, err := m.Map("rw", 0, 1<<20, Perms{Kernel: PermRW}); err != nil {
		t.Fatal(err)
	}
	done := make(chan struct{})
	for g := 0; g < 8; g++ {
		go func(g int) {
			defer func() { done <- struct{}{} }()
			buf := []byte{byte(g)}
			addr := uint64(g * 128)
			for i := 0; i < 1000; i++ {
				if err := m.Write(PrivKernel, addr, buf); err != nil {
					t.Errorf("write: %v", err)
					return
				}
				got := make([]byte, 1)
				if err := m.Read(PrivKernel, addr, got); err != nil || got[0] != byte(g) {
					t.Errorf("read: %v %v", got, err)
					return
				}
			}
		}(g)
	}
	for g := 0; g < 8; g++ {
		<-done
	}
}
