package mem

import (
	"bytes"
	"sync"
	"testing"
)

// forkedPair builds a parent with one RW kernel region holding a known
// pattern in its first frame, plus its fork.
func forkedPair(t *testing.T) (*Physical, *Physical) {
	t.Helper()
	parent := newTestMem(t)
	mustMap(t, parent, "ram", 0, 8*FrameSize, Perms{Kernel: PermRW})
	if err := parent.Write(PrivKernel, 0x100, []byte("template-bytes")); err != nil {
		t.Fatal(err)
	}
	return parent, parent.Fork()
}

func TestForkSharesContents(t *testing.T) {
	parent, child := forkedPair(t)
	buf := make([]byte, 14)
	if err := child.Read(PrivKernel, 0x100, buf); err != nil {
		t.Fatal(err)
	}
	if string(buf) != "template-bytes" {
		t.Fatalf("fork contents = %q", buf)
	}
	// Sharing, not copying: the fork's entire resident set is shared
	// and costs no private bytes.
	st := child.ResidentStats()
	if st.PrivateBytes != 0 {
		t.Fatalf("fresh fork has %d private bytes", st.PrivateBytes)
	}
	if st.SharedBytes != parent.ResidentStats().SharedBytes {
		t.Fatalf("fork shared=%d, parent shared=%d", st.SharedBytes, parent.ResidentStats().SharedBytes)
	}
	if child.Origin() != parent {
		t.Fatal("fork origin not recorded")
	}
}

func TestForkWriteIsolation(t *testing.T) {
	parent, child := forkedPair(t)
	sibling := parent.Fork()

	// A write in one fork is invisible in the template and the sibling.
	if err := child.Write(PrivKernel, 0x100, []byte("CHILD-OVERWRITE")); err != nil {
		t.Fatal(err)
	}
	for name, m := range map[string]*Physical{"parent": parent, "sibling": sibling} {
		buf := make([]byte, 14)
		if err := m.Read(PrivKernel, 0x100, buf); err != nil {
			t.Fatal(err)
		}
		if string(buf) != "template-bytes" {
			t.Fatalf("%s sees fork's write: %q", name, buf)
		}
	}
	// And the other direction: a later template write is invisible in
	// the (already cloned and the still-shared) forks.
	if err := parent.Write(PrivKernel, 2*FrameSize, []byte{0xAA}); err != nil {
		t.Fatal(err)
	}
	buf := make([]byte, 1)
	if err := sibling.Read(PrivKernel, 2*FrameSize, buf); err != nil {
		t.Fatal(err)
	}
	if buf[0] != 0 {
		t.Fatal("sibling sees parent's post-fork write")
	}
	// The dirty frame is the fork's only private memory.
	if st := child.ResidentStats(); st.PrivateBytes != FrameSize {
		t.Fatalf("fork private = %d, want one frame", st.PrivateBytes)
	}
}

func TestForkRegionTableIndependence(t *testing.T) {
	parent, child := forkedPair(t)

	// Locking a region in the fork (the per-fork SMRAM lock) must not
	// change the template's permissions, and vice versa.
	if err := child.SetPerms("ram", Perms{}); err != nil {
		t.Fatal(err)
	}
	if err := parent.Write(PrivKernel, 0x200, []byte{1}); err != nil {
		t.Fatalf("parent write blocked by fork's SetPerms: %v", err)
	}
	if err := child.Write(PrivKernel, 0x200, []byte{1}); err == nil {
		t.Fatal("fork write allowed through revoked perms")
	}

	// New mappings are per-store too.
	if _, err := child.Map("fork-only", 9*FrameSize, FrameSize, Perms{Kernel: PermRW}); err != nil {
		t.Fatal(err)
	}
	if parent.Region("fork-only") != nil {
		t.Fatal("fork's Map leaked into parent")
	}
}

func TestForkCodeEpochIndependent(t *testing.T) {
	parent := newTestMem(t)
	mustMap(t, parent, "text", 0, FrameSize, Perms{Kernel: PermRWX})
	e0 := parent.CodeEpoch()
	child := parent.Fork()
	if child.CodeEpoch() != e0 {
		t.Fatalf("fork epoch = %d, parent = %d", child.CodeEpoch(), e0)
	}
	// A code write in the fork bumps only the fork's epoch.
	if err := child.Write(PrivKernel, 0x10, []byte{0x90}); err != nil {
		t.Fatal(err)
	}
	if child.CodeEpoch() == e0 {
		t.Fatal("fork code write did not advance fork epoch")
	}
	if parent.CodeEpoch() != e0 {
		t.Fatal("fork code write advanced parent epoch")
	}
}

func TestForkDiffAgainstTemplateSnapshot(t *testing.T) {
	parent, child := forkedPair(t)
	snap := parent.Snapshot()

	// A template snapshot is a valid diff base for the fork (the
	// origin chain), and the diff names exactly the fork's dirty
	// frames.
	dirty, err := child.DiffFrames(snap)
	if err != nil {
		t.Fatal(err)
	}
	if len(dirty) != 0 {
		t.Fatalf("fresh fork differs from template: frames %v", dirty)
	}
	if err := child.Write(PrivKernel, 3*FrameSize+5, []byte{1}); err != nil {
		t.Fatal(err)
	}
	dirty, err = child.DiffFrames(snap)
	if err != nil {
		t.Fatal(err)
	}
	if len(dirty) != 1 || dirty[0] != 3 {
		t.Fatalf("dirty frames = %v, want [3]", dirty)
	}
	// Restore from the template snapshot rolls the fork back.
	if err := child.Restore(snap); err != nil {
		t.Fatal(err)
	}
	buf := make([]byte, 14)
	if err := child.Read(PrivKernel, 0x100, buf); err != nil {
		t.Fatal(err)
	}
	if string(buf) != "template-bytes" {
		t.Fatalf("restored fork = %q", buf)
	}
}

func TestForkOfForkChains(t *testing.T) {
	parent, child := forkedPair(t)
	grand := child.Fork()
	snap := parent.Snapshot()
	// The grandchild accepts the grandparent's snapshot through the
	// origin chain.
	if _, err := grand.DiffFrames(snap); err != nil {
		t.Fatalf("grandchild rejects ancestor snapshot: %v", err)
	}
	// An unrelated Physical still rejects it.
	other := New(1 << 20)
	if _, err := other.DiffFrames(snap); err == nil {
		t.Fatal("unrelated Physical accepted foreign snapshot")
	}
}

func TestForkConcurrentWriters(t *testing.T) {
	parent := newTestMem(t)
	mustMap(t, parent, "ram", 0, 64*FrameSize, Perms{Kernel: PermRW})
	pattern := bytes.Repeat([]byte{0x5A}, 256)
	for f := uint64(0); f < 64; f++ {
		if err := parent.Write(PrivKernel, f*FrameSize, pattern); err != nil {
			t.Fatal(err)
		}
	}

	// N forks concurrently scribble distinct bytes over the same
	// addresses while the parent keeps writing too; under -race this
	// exercises the cross-store shared-flag protocol.
	const forks = 8
	var wg sync.WaitGroup
	children := make([]*Physical, forks)
	for i := 0; i < forks; i++ {
		children[i] = parent.Fork()
	}
	for i, c := range children {
		wg.Add(1)
		go func(i int, c *Physical) {
			defer wg.Done()
			b := []byte{byte(i + 1)}
			for f := uint64(0); f < 64; f++ {
				if err := c.Write(PrivKernel, f*FrameSize+8, b); err != nil {
					t.Error(err)
					return
				}
			}
		}(i, c)
	}
	wg.Add(1)
	go func() {
		defer wg.Done()
		for f := uint64(0); f < 64; f++ {
			if err := parent.Write(PrivKernel, f*FrameSize+9, []byte{0xFF}); err != nil {
				t.Error(err)
				return
			}
		}
	}()
	wg.Wait()

	for i, c := range children {
		buf := make([]byte, 2)
		for f := uint64(0); f < 64; f++ {
			if err := c.Read(PrivKernel, f*FrameSize+8, buf); err != nil {
				t.Fatal(err)
			}
			if buf[0] != byte(i+1) {
				t.Fatalf("fork %d frame %d: own write lost (%#x)", i, f, buf[0])
			}
			if buf[1] == 0xFF {
				t.Fatalf("fork %d frame %d: parent's post-fork write visible", i, f)
			}
		}
	}
}

// TestConcurrentLeafCopy races the path copy of one shared leaf. Right
// after a Fork, 8 goroutines each write their own page of the same
// leaf, so several may copy the leaf at once and all but one lose the
// CompareAndSwap on its root slot, while readers load the leaf's other
// pages through whichever copy is published. Every write must land in
// the child and none in the template, which must diff clean against
// its pre-fork snapshot.
func TestConcurrentLeafCopy(t *testing.T) {
	const (
		writers = 8
		readers = 4
		rounds  = 50
		leafIdx = 1
	)
	base := uint64(leafIdx * leafSpan)
	tmpl := New(4 * leafSpan)
	mustMap(t, tmpl, "ram", 0, 4*leafSpan, Perms{Kernel: PermRW})
	fill := bytes.Repeat([]byte{0x5A}, leafSpan)
	if err := tmpl.Write(PrivKernel, base, fill); err != nil {
		t.Fatal(err)
	}
	snap := tmpl.Snapshot()
	// Writer w owns page 5w+1 of the leaf: distinct pages in distinct
	// shards. Readers walk the pages no writer owns.
	owned := func(j uint64) bool { return j%5 == 1 && j/5 < writers }
	for round := 0; round < rounds; round++ {
		child := tmpl.Fork()
		start := make(chan struct{})
		var wg sync.WaitGroup
		for w := uint64(0); w < writers; w++ {
			wg.Add(1)
			go func() {
				defer wg.Done()
				<-start
				if err := child.WriteU64(PrivKernel, base+(5*w+1)*FrameSize+8, w+1); err != nil {
					t.Error(err)
				}
			}()
		}
		for r := uint64(0); r < readers; r++ {
			wg.Add(1)
			go func() {
				defer wg.Done()
				<-start
				buf := make([]byte, 16)
				for j := r; j < leafPages; j += readers {
					if owned(j) {
						continue
					}
					if err := child.Read(PrivKernel, base+j*FrameSize, buf); err != nil {
						t.Error(err)
						return
					}
					if !bytes.Equal(buf, fill[:len(buf)]) {
						t.Errorf("round %d: child page %d reads %x during the path copy", round, j, buf)
						return
					}
				}
			}()
		}
		close(start)
		wg.Wait()
		if t.Failed() {
			return
		}

		for w := uint64(0); w < writers; w++ {
			addr := base + (5*w+1)*FrameSize + 8
			if v, err := child.ReadU64(PrivKernel, addr); err != nil || v != w+1 {
				t.Fatalf("round %d: child page %d = %#x, %v; want writer %d's value", round, 5*w+1, v, err, w+1)
			}
			if v, err := tmpl.ReadU64(PrivKernel, addr); err != nil || v != 0x5A5A5A5A5A5A5A5A {
				t.Fatalf("round %d: template page %d = %#x, %v; a child write leaked", round, 5*w+1, v, err)
			}
		}
		dirty, err := child.DiffFrames(snap)
		if err != nil || len(dirty) != writers {
			t.Fatalf("round %d: child diff = %v, %v; want the %d written pages", round, dirty, err, writers)
		}
		if dirty, err := tmpl.DiffFrames(snap); err != nil || len(dirty) != 0 {
			t.Fatalf("round %d: template diff vs pre-fork snapshot = %v, %v; want clean", round, dirty, err)
		}
		child.Release()
	}
}
