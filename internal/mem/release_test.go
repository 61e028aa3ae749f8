package mem

import (
	"bytes"
	"errors"
	"sync"
	"testing"
)

// releaseFrames is the number of frames (pages) the Release tests map:
// two whole leaves, enough that the scribbling Physical drains every
// page and leaf a release pooled.
const releaseFrames = 2 * leafPages

// newReleaseMem returns a Physical with one kernel RWX region covering
// releaseFrames frames.
func newReleaseMem(t *testing.T) *Physical {
	t.Helper()
	m := New(releaseFrames * FrameSize)
	mustMap(t, m, "ram", 0, releaseFrames*FrameSize, Perms{Kernel: PermRWX})
	return m
}

// scribble takes as many pages and leaves from the pools as a release
// can have put there and fills each page with 0xEE. A page or leaf
// wrongly pooled while still reachable elsewhere gets overwritten.
func scribble(t *testing.T) {
	t.Helper()
	m := newReleaseMem(t)
	if err := m.Write(PrivKernel, 0, bytes.Repeat([]byte{0xEE}, releaseFrames*FrameSize)); err != nil {
		t.Fatal(err)
	}
}

// readAll returns m's whole contents, bypassing the region table.
func readAll(m *Physical) []byte {
	buf := make([]byte, m.size)
	m.readFrames(0, buf)
	return buf
}

func TestRelease(t *testing.T) {
	pattern := func(n int, seed byte) []byte {
		b := make([]byte, n)
		for i := range b {
			b[i] = seed + byte(i*13)
		}
		return b
	}
	cases := []struct {
		name string
		run  func(t *testing.T)
	}{
		{"shared frames are never pooled", func(t *testing.T) {
			tmpl := newReleaseMem(t)
			if err := tmpl.Write(PrivKernel, leafSpan-2*FrameSize, pattern(4*FrameSize, 1)); err != nil {
				t.Fatal(err)
			}
			snap := tmpl.Snapshot()
			child := tmpl.Fork()
			// At release the child holds template leaves, a leaf copy
			// it shares with the grandchild, and the leaf copy and
			// pages it wrote after the grandchild fork (its only
			// exclusive ones).
			if err := child.Write(PrivKernel, leafSpan+FrameSize+5, []byte("child")); err != nil {
				t.Fatal(err)
			}
			grand := child.Fork()
			if err := child.Write(PrivKernel, leafSpan-FrameSize, pattern(4*FrameSize, 7)); err != nil {
				t.Fatal(err)
			}
			tmplBytes, grandBytes := readAll(tmpl), readAll(grand)

			child.Release()
			scribble(t)

			if !bytes.Equal(readAll(tmpl), tmplBytes) {
				t.Error("template bytes changed after a fork was released")
			}
			if !bytes.Equal(readAll(grand), grandBytes) {
				t.Error("grandchild bytes changed after its parent was released")
			}
			if dirty, err := tmpl.DiffFrames(snap); err != nil || len(dirty) != 0 {
				t.Errorf("template diff vs pre-fork snapshot = %v, %v; want clean", dirty, err)
			}
		}},
		{"recycled frames read zero outside the new owner's writes", func(t *testing.T) {
			// One fully written frame, one partial frame, and a
			// full-frame copy of a shared template frame.
			tmpl := newReleaseMem(t)
			if err := tmpl.Write(PrivKernel, 2*FrameSize, pattern(FrameSize, 3)); err != nil {
				t.Fatal(err)
			}
			old := tmpl.Fork()
			if err := old.Write(PrivKernel, 0, pattern(FrameSize, 5)); err != nil {
				t.Fatal(err)
			}
			if err := old.Write(PrivKernel, FrameSize+FrameSize/2-2, pattern(FrameSize/4, 9)); err != nil {
				t.Fatal(err)
			}
			if err := old.Write(PrivKernel, 2*FrameSize+100, []byte{0}); err != nil {
				t.Fatal(err)
			}
			old.Release()

			fresh := newReleaseMem(t)
			want := make([]byte, fresh.size)
			for f := uint64(0); f < releaseFrames; f++ {
				addr := f*FrameSize + (f*509)%(FrameSize-11)
				src := pattern(11, byte(f))
				if err := fresh.Write(PrivKernel, addr, src); err != nil {
					t.Fatal(err)
				}
				copy(want[addr:], src)
			}
			if got := readAll(fresh); !bytes.Equal(got, want) {
				i := 0
				for got[i] == want[i] {
					i++
				}
				t.Fatalf("recycled frame leaks byte %#x at %#x", got[i], i)
			}
		}},
		{"a recycled leaf comes back empty", func(t *testing.T) {
			old := newReleaseMem(t)
			if err := old.Write(PrivKernel, 0, pattern(leafSpan, 4)); err != nil {
				t.Fatal(err)
			}
			old.Release()

			fresh := newReleaseMem(t)
			if err := fresh.Write(PrivKernel, 3*FrameSize+1, []byte{1}); err != nil {
				t.Fatal(err)
			}
			l := fresh.root[0].Load()
			for j := range l.pages {
				if j != 3 && l.pages[j].Load() != nil {
					t.Fatalf("leaf holds page %d its owner never wrote", j)
				}
			}
			want := make([]byte, fresh.size)
			want[3*FrameSize+1] = 1
			if !bytes.Equal(readAll(fresh), want) {
				t.Fatal("recycled leaf reads bytes its owner never wrote")
			}
		}},
		{"access after Release faults", func(t *testing.T) {
			m := newReleaseMem(t)
			if err := m.Write(PrivKernel, 0x40, []byte{0x90, 0x90}); err != nil {
				t.Fatal(err)
			}
			var c RegionCache
			if err := m.FetchCached(PrivKernel, 0x40, make([]byte, 1), &c); err != nil {
				t.Fatal(err)
			}
			m.Release()
			buf := make([]byte, 2)
			for name, err := range map[string]error{
				"read":         m.Read(PrivKernel, 0x40, buf),
				"write":        m.Write(PrivKernel, 0x40, buf),
				"fetch":        m.Fetch(PrivKernel, 0x40, buf),
				"cached fetch": m.FetchCached(PrivKernel, 0x40, buf, &c),
				"zero":         m.Zero(PrivKernel, 0x40, 2),
			} {
				var f *Fault
				if !errors.As(err, &f) || f.Region != "" || f.Addr != 0x40 {
					t.Errorf("%s after Release: %v, want an unmapped fault at 0x40", name, err)
				}
			}
			if st := m.ResidentStats(); st != (ResidentStats{}) {
				t.Errorf("released memory still resident: %+v", st)
			}
		}},
		{"double Release is a no-op", func(t *testing.T) {
			m := newReleaseMem(t)
			if err := m.Write(PrivKernel, 0, []byte{1}); err != nil {
				t.Fatal(err)
			}
			m.Release()
			epoch, tab := m.CodeEpoch(), m.tab.Load()
			m.Release()
			if m.CodeEpoch() != epoch || m.tab.Load() != tab {
				t.Error("second Release changed the code epoch or region table")
			}
		}},
	}
	for _, tc := range cases {
		t.Run(tc.name, tc.run)
	}
}

// Accesses racing Release either complete or fault; none touches a
// recycled frame (the race detector checks the memory side).
func TestReleaseConcurrentAccess(t *testing.T) {
	m := newReleaseMem(t)
	var wg sync.WaitGroup
	for w := 0; w < 4; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			buf := make([]byte, 64)
			for i := 0; i < 2000; i++ {
				addr := uint64((w*1000+i)*4099) % (releaseFrames*FrameSize - 64)
				var err error
				if i%2 == 0 {
					err = m.Write(PrivKernel, addr, buf)
				} else {
					err = m.Read(PrivKernel, addr, buf)
				}
				var f *Fault
				if err != nil && !errors.As(err, &f) {
					t.Errorf("access racing Release: %v", err)
					return
				}
			}
		}(w)
	}
	m.Release()
	wg.Wait()
	scribble(t)
}
