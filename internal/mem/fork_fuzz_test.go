package mem

import (
	"bytes"
	"testing"
)

// FuzzForkMem differentially fuzzes a forked Physical against the flat
// oracle: the template boots with a deterministic pattern, the fork
// takes random read/write/zero/perm traffic that must match a fresh
// oracle holding the same initial bytes, and after every sequence the
// template must diff clean against its pre-fork snapshot — no op on
// the fork may leak through a shared frame. The fork is then released
// and a second fork replays the sequence at shifted addresses against
// a fresh oracle, ending with a whole-memory compare: a dirty-mask miss
// would leak the first fork's bytes through a recycled frame.
func FuzzForkMem(f *testing.F) {
	f.Add([]byte{0x01, 0x00, 0x10, 0x00, 0x20, 0x00})
	f.Add([]byte{0x00, 0x01, 0x02, 0x03, 0x04, 0x05, 0x06, 0x07, 0x08, 0x09})
	f.Add(bytes.Repeat([]byte{0x81, 0x42, 0x24, 0x18}, 24))
	f.Fuzz(func(t *testing.T, ops []byte) {
		template := New(fuzzPhysSize)
		if _, err := template.Map("ram", 0, 12*FrameSize, Perms{Kernel: PermRW, User: PermR}); err != nil {
			t.Fatal(err)
		}
		if _, err := template.Map("mmio", 14*FrameSize, FrameSize, Perms{SMM: PermRW}); err != nil {
			t.Fatal(err)
		}
		// Deterministic template contents: a recognizable stripe in
		// every second frame (the others stay lazily zero, so the fork
		// inherits a mix of resident and absent frames).
		stripe := make([]byte, 512)
		for i := range stripe {
			stripe[i] = byte(i*7 + 3)
		}
		for fr := uint64(0); fr < 12; fr += 2 {
			if err := template.Write(PrivKernel, fr*FrameSize+128, stripe); err != nil {
				t.Fatal(err)
			}
		}
		snap := template.Snapshot()

		// Oracle: flat model seeded with the template's exact bytes and
		// region layout.
		newOracle := func() *refMem {
			ref := newRefMem(fuzzPhysSize)
			if err := ref.mapRegion("ram", 0, 12*FrameSize, Perms{Kernel: PermRW, User: PermR}); err != nil {
				t.Fatal(err)
			}
			if err := ref.mapRegion("mmio", 14*FrameSize, FrameSize, Perms{SMM: PermRW}); err != nil {
				t.Fatal(err)
			}
			for fr := uint64(0); fr < 12; fr += 2 {
				copy(ref.data[fr*FrameSize+128:], stripe)
			}
			return ref
		}

		child, ref := template.Fork(), newOracle()
		replayForkOps(t, template, snap, child, ref, ops, 0)

		// Recycle the fork's frames into a second fork. Different
		// addresses make it write where the first fork did not, so any
		// stale block shows in the whole-memory compare.
		child.Release()
		child, ref = template.Fork(), newOracle()
		replayForkOps(t, template, snap, child, ref, ops, 5*FrameSize+3*4096+333)
		got := make([]byte, fuzzPhysSize)
		child.readFrames(0, got)
		if !bytes.Equal(got, ref.data) {
			i := 0
			for got[i] == ref.data[i] {
				i++
			}
			t.Fatalf("second fork byte %#x = %#x, oracle %#x: a recycled frame leaked", i, got[i], ref.data[i])
		}

		// The template saw none of it: identical to its pre-fork
		// snapshot and to the oracle's notion of the original bytes.
		tmplDirty, err := template.DiffFrames(snap)
		if err != nil {
			t.Fatal(err)
		}
		if len(tmplDirty) != 0 {
			t.Fatalf("fork traffic dirtied template frames %v", tmplDirty)
		}
		for fr := uint64(0); fr < 12; fr += 2 {
			got := make([]byte, len(stripe))
			if err := template.Read(PrivKernel, fr*FrameSize+128, got); err != nil {
				t.Fatal(err)
			}
			if !bytes.Equal(got, stripe) {
				t.Fatalf("template frame %d corrupted by fork traffic", fr)
			}
		}
	})
}

// replayForkOps interprets ops as read/write/zero/diff traffic on the
// fork child of template, checking each step against the flat oracle
// ref. shift offsets every address (modulo the addressable range), so
// the same ops can drive a second fork somewhere else.
func replayForkOps(t *testing.T, template *Physical, snap *Snapshot, child *Physical, ref *refMem, ops []byte, shift uint64) {
	t.Helper()
	take := func(k int) []byte {
		out := make([]byte, k)
		copy(out, ops)
		ops = ops[min(len(ops), k):]
		return out
	}
	for step := 0; len(ops) > 0 && step < 256; step++ {
		b := take(4)
		op := b[0] % 4
		priv := Priv(b[1]%4) + 1
		addr := ((uint64(b[2])<<8|uint64(b[3]))*61 + shift) % (fuzzPhysSize + FrameSize)
		lb := take(2)
		n := (uint64(lb[0])<<8 | uint64(lb[1])) % (FrameSize + 17)

		switch op {
		case 0: // Read on the fork
			got := make([]byte, n)
			err := child.Read(priv, addr, got)
			want := ref.access(priv, Read, addr, n)
			if !sameFault(err, want) {
				t.Fatalf("step %d: fork read(%v,%#x,%d): got %v want %v", step, priv, addr, n, err, want)
			}
			if err == nil && n > 0 && !bytes.Equal(got, ref.data[addr:addr+n]) {
				t.Fatalf("step %d: fork read(%v,%#x,%d) bytes diverge from oracle", step, priv, addr, n)
			}
		case 1: // Write on the fork
			src := bytes.Repeat([]byte{b[1] ^ 0x3C}, int(n))
			for i := range src {
				src[i] -= byte(i * 3)
			}
			err := child.Write(priv, addr, src)
			want := ref.access(priv, Write, addr, n)
			if !sameFault(err, want) {
				t.Fatalf("step %d: fork write(%v,%#x,%d): got %v want %v", step, priv, addr, n, err, want)
			}
			if err == nil && n > 0 {
				copy(ref.data[addr:], src)
			}
		case 2: // Zero on the fork
			err := child.Zero(priv, addr, n)
			want := ref.access(priv, Write, addr, n)
			if !sameFault(err, want) {
				t.Fatalf("step %d: fork zero(%v,%#x,%d): got %v want %v", step, priv, addr, n, err, want)
			}
			if err == nil && n > 0 {
				clear(ref.data[addr : addr+n])
			}
		case 3: // Diff the fork against the template snapshot
			dirty, err := child.DiffFrames(snap)
			if err != nil {
				t.Fatalf("step %d: fork diff vs template snapshot: %v", step, err)
			}
			var want []uint64
			for fr := uint64(0); fr < fuzzPhysSize/FrameSize; fr++ {
				a := fr * FrameSize
				tmpl := make([]byte, FrameSize)
				template.readFrames(a, tmpl)
				if !bytes.Equal(ref.data[a:a+FrameSize], tmpl) {
					want = append(want, fr)
				}
			}
			if len(dirty) != len(want) {
				t.Fatalf("step %d: fork dirty %v, oracle %v", step, dirty, want)
			}
			for i := range dirty {
				if dirty[i] != want[i] {
					t.Fatalf("step %d: fork dirty %v, oracle %v", step, dirty, want)
				}
			}
		}
	}
}
