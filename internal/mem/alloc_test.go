package mem

import "testing"

// TestGuestPathAllocs pins the guest memory path's zero-allocation
// contract: 8-byte loads and stores (every guest load, store, push, pop
// and call), one-frame reads and writes, and cached instruction fetch
// allocate nothing once their frames are resident.
func TestGuestPathAllocs(t *testing.T) {
	m := New(fuzzPhysSize)
	if _, err := m.Map("ram", 0, 4*FrameSize, Perms{Kernel: PermRW}); err != nil {
		t.Fatal(err)
	}
	if _, err := m.Map("text", 4*FrameSize, FrameSize, Perms{Kernel: PermR | PermX, SMM: PermRWX}); err != nil {
		t.Fatal(err)
	}
	if err := m.Write(PrivSMM, 4*FrameSize, make([]byte, 64)); err != nil {
		t.Fatal(err)
	}
	buf := make([]byte, 256)
	fetch := make([]byte, 8)
	var cache RegionCache
	check := func(err error) {
		if err != nil {
			t.Fatal(err)
		}
	}
	for _, c := range []struct {
		name string
		f    func()
	}{
		{"WriteU64", func() { check(m.WriteU64(PrivKernel, 0x40, 7)) }},
		{"WriteU64/straddle", func() { check(m.WriteU64(PrivKernel, FrameSize-4, 7)) }},
		{"ReadU64", func() { _, err := m.ReadU64(PrivKernel, 0x40); check(err) }},
		{"ReadU64/absent-frame", func() { _, err := m.ReadU64(PrivKernel, 3*FrameSize); check(err) }},
		{"Write", func() { check(m.Write(PrivKernel, 0x100, buf)) }},
		{"Read", func() { check(m.Read(PrivKernel, 0x100, buf)) }},
		{"FetchCached", func() { check(m.FetchCached(PrivKernel, 4*FrameSize+8, fetch, &cache)) }},
	} {
		if n := testing.AllocsPerRun(100, c.f); n != 0 {
			t.Errorf("%s: %v allocations per call, want 0", c.name, n)
		}
	}

	// A store into a fresh frame takes a recycled page (and, the first
	// time, a recycled leaf) once a released Physical has filled the
	// pools. The race detector drops a quarter of the pools' puts, so
	// this half runs without it.
	if raceEnabled {
		return
	}
	const runs = 8
	donor := New(fuzzPhysSize)
	if _, err := donor.Map("ram", 0, fuzzPhysSize, Perms{Kernel: PermRW}); err != nil {
		t.Fatal(err)
	}
	for fr := uint64(0); fr < 2*runs; fr++ {
		check(donor.WriteU64(PrivKernel, fr*FrameSize, 1))
	}
	donor.Release()
	fresh := New(fuzzPhysSize)
	if _, err := fresh.Map("ram", 0, fuzzPhysSize, Perms{Kernel: PermRW}); err != nil {
		t.Fatal(err)
	}
	next := uint64(0)
	if n := testing.AllocsPerRun(runs, func() {
		check(fresh.WriteU64(PrivKernel, next*FrameSize+8, 1))
		next++
	}); n != 0 {
		t.Errorf("WriteU64 to a fresh frame: %v allocations per call after warm-up, want 0", n)
	}
	// Zero of whole pages recycles them, so storing into the pages again
	// takes them back from the pool. Four pages a run outnumber what the
	// donor left pooled, so a Zero that dropped its pages would show.
	if n := testing.AllocsPerRun(runs, func() {
		check(fresh.Zero(PrivKernel, 0, 4*FrameSize))
		for p := uint64(0); p < 4; p++ {
			check(fresh.WriteU64(PrivKernel, p*FrameSize+8, 1))
		}
	}); n != 0 {
		t.Errorf("Zero of 4 pages, then a store into each: %v allocations per call, want 0", n)
	}
}
