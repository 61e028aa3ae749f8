package mem

import (
	"bytes"
	"encoding/binary"
	"errors"
	"fmt"
	"testing"
)

// refMem is a deliberately naive flat-array model of Physical used as
// the differential-fuzz oracle: one contiguous byte slice, linear
// region scans, per-byte permission checks. It shares no code with the
// sparse store, so agreement between the two is evidence the page
// table bookkeeping, copy-on-write path copies, and region-table swaps
// preserve the original semantics.
type refMem struct {
	size uint64
	data []byte
	regs []*refRegion
}

type refRegion struct {
	name       string
	base, size uint64
	perms      [numPriv]Perm
}

func newRefMem(size uint64) *refMem {
	return &refMem{size: size, data: make([]byte, size)}
}

func (f *refMem) find(addr uint64) *refRegion {
	for _, r := range f.regs {
		if addr >= r.base && addr < r.base+r.size {
			return r
		}
	}
	return nil
}

func (f *refMem) mapRegion(name string, base, size uint64, ps Perms) error {
	if size == 0 {
		return errors.New("zero size")
	}
	if base+size < base || base+size > f.size {
		return errors.New("out of bounds")
	}
	for _, r := range f.regs {
		if r.name == name {
			return errors.New("duplicate name")
		}
		if base < r.base+r.size && r.base < base+size {
			return errors.New("overlap")
		}
	}
	f.regs = append(f.regs, &refRegion{
		name: name, base: base, size: size,
		perms: [numPriv]Perm{PrivUser: ps.User, PrivKernel: ps.Kernel, PrivEnclave: ps.Enclave, PrivSMM: ps.SMM},
	})
	return nil
}

func (f *refMem) setPerms(name string, ps Perms) error {
	for _, r := range f.regs {
		if r.name == name {
			r.perms = [numPriv]Perm{PrivUser: ps.User, PrivKernel: ps.Kernel, PrivEnclave: ps.Enclave, PrivSMM: ps.SMM}
			return nil
		}
	}
	return errors.New("no such region")
}

// access validates [addr, addr+n) byte by byte, reproducing Physical's
// fault details (first offending address and its region name) from
// first principles.
func (f *refMem) access(priv Priv, kind Access, addr, n uint64) *Fault {
	if n == 0 {
		return nil
	}
	if addr+n < addr || addr+n > f.size {
		return &Fault{Priv: priv, Access: kind, Addr: addr}
	}
	for off := addr; off < addr+n; off++ {
		r := f.find(off)
		if r == nil {
			return &Fault{Priv: priv, Access: kind, Addr: off}
		}
		if !r.perms[priv].allows(kind) {
			return &Fault{Priv: priv, Access: kind, Addr: off, Region: r.name}
		}
		// Skip to the end of this region: permissions are uniform
		// inside it, so re-checking every byte only costs time.
		off = r.base + r.size - 1
	}
	return nil
}

// sameFault compares an error from Physical against the oracle fault.
func sameFault(err error, want *Fault) bool {
	if want == nil {
		return err == nil
	}
	var got *Fault
	if !errors.As(err, &got) {
		return false
	}
	return got.Priv == want.Priv && got.Access == want.Access &&
		got.Addr == want.Addr && got.Region == want.Region
}

// fuzzRegions is the palette of mappings the fuzz interpreter can
// toggle: overlapping candidates, mixed permissions, a page-unaligned
// region, regions straddling both leaf edges, and one butting against
// the end of physical memory.
var fuzzRegions = []struct {
	name string
	base uint64
	size uint64
	ps   Perms
}{
	{"ram", 0, leafSpan - 2*FrameSize, Perms{Kernel: PermRW, User: PermR}},
	{"text", leafSpan - 2*FrameSize, 4 * FrameSize, Perms{Kernel: PermR | PermX, SMM: PermRWX}}, // straddles the first leaf edge
	{"odd", leafSpan + 2*FrameSize + 0x123, FrameSize / 2, Perms{Kernel: PermRW}},
	{"wide", leafSpan / 2, leafSpan + leafSpan/2 + 8*FrameSize, Perms{Kernel: PermRWX}}, // overlaps ram/text/odd, crosses both leaf edges
	{"tail", fuzzPhysSize - FrameSize/4, FrameSize / 4, Perms{SMM: PermRW}},
	{"gap", 2*leafSpan + 10*FrameSize, 2 * FrameSize, Perms{Enclave: PermRW}},
}

// fuzzPhysSize is two whole leaves and 16 pages of a third, so fuzzed
// spans reach both leaf edges and a partial last leaf.
const fuzzPhysSize = 2*leafSpan + 16*FrameSize

// fuzzSpan draws an access length from two fuzz bytes: up to four
// pages and a bit, so a span crosses at most five page boundaries.
func fuzzSpan(hi, lo byte) uint64 { return (uint64(hi)<<8 | uint64(lo)) % (4*FrameSize + 17) }

// FuzzSparseMemAccess feeds random op sequences to the sparse store
// and the flat oracle and requires byte- and fault-identical behavior,
// including across Map/SetPerms epoch bumps (which must invalidate the
// fetch RegionCache) and Snapshot/Restore cycles. ReadU64 and WriteU64
// exercise the guest's 8-byte path, whose one-page case takes a
// single shard and whose straddling case takes two.
func FuzzSparseMemAccess(f *testing.F) {
	f.Add([]byte{0x00, 0x01, 0x02, 0x03, 0x04, 0x05, 0x06, 0x07})
	f.Add([]byte{0x13, 0x37, 0xFF, 0x00, 0xAA, 0x55, 0x21, 0x42, 0x63, 0x84, 0xA5, 0xC6})
	f.Add(bytes.Repeat([]byte{0x2F, 0x90, 0x04, 0x71}, 16))
	// The committed seed 8354730546534ced, "00@", was a zero-length
	// Read when ops were b[0] % 8; '(' keeps that op under % 10.
	f.Add([]byte("(0@"))
	f.Fuzz(func(t *testing.T, ops []byte) {
		m := New(fuzzPhysSize)
		ref := newRefMem(fuzzPhysSize)
		var cache RegionCache
		var snap *Snapshot
		var refSnap []byte

		// take consumes k bytes from ops (zero-padded at the tail).
		take := func(k int) []byte {
			out := make([]byte, k)
			copy(out, ops)
			ops = ops[min(len(ops), k):]
			return out
		}

		for step := 0; len(ops) > 0 && step < 512; step++ {
			b := take(4)
			op := b[0] % 10
			priv := Priv(b[1]%4) + 1
			addr := (uint64(b[2])<<8 | uint64(b[3])) * 67 % (fuzzPhysSize + FrameSize) // may exceed size
			lb := take(2)
			n := fuzzSpan(lb[0], lb[1])
			if op >= 8 {
				// 8-byte accesses ignore n; lb's first byte steps off
				// the 67-byte address grid so every page boundary is
				// reachable.
				addr += uint64(lb[0]) % 67
			}

			switch op {
			case 0: // Read
				got := make([]byte, n)
				err := m.Read(priv, addr, got)
				want := ref.access(priv, Read, addr, n)
				if !sameFault(err, want) {
					t.Fatalf("step %d: read(%v,%#x,%d) fault mismatch: got %v want %v", step, priv, addr, n, err, want)
				}
				if err == nil && n > 0 && !bytes.Equal(got, ref.data[addr:addr+n]) {
					t.Fatalf("step %d: read(%v,%#x,%d) bytes diverge", step, priv, addr, n)
				}
			case 1: // Write
				src := bytes.Repeat([]byte{b[1] ^ b[2]}, int(n))
				for i := range src {
					src[i] += byte(i)
				}
				err := m.Write(priv, addr, src)
				want := ref.access(priv, Write, addr, n)
				if !sameFault(err, want) {
					t.Fatalf("step %d: write(%v,%#x,%d) fault mismatch: got %v want %v", step, priv, addr, n, err, want)
				}
				if err == nil && n > 0 {
					copy(ref.data[addr:], src)
				}
			case 2: // Fetch through the per-CPU cache
				got := make([]byte, n)
				err := m.FetchCached(priv, addr, got, &cache)
				want := ref.access(priv, Execute, addr, n)
				if !sameFault(err, want) {
					t.Fatalf("step %d: fetch(%v,%#x,%d) fault mismatch: got %v want %v", step, priv, addr, n, err, want)
				}
				if err == nil && n > 0 && !bytes.Equal(got, ref.data[addr:addr+n]) {
					t.Fatalf("step %d: fetch(%v,%#x,%d) bytes diverge", step, priv, addr, n)
				}
			case 3: // Zero
				err := m.Zero(priv, addr, n)
				want := ref.access(priv, Write, addr, n)
				if !sameFault(err, want) {
					t.Fatalf("step %d: zero(%v,%#x,%d) fault mismatch: got %v want %v", step, priv, addr, n, err, want)
				}
				if err == nil && n > 0 {
					clear(ref.data[addr : addr+n])
				}
			case 4: // Map from the palette
				spec := fuzzRegions[int(b[1])%len(fuzzRegions)]
				_, err := m.Map(spec.name, spec.base, spec.size, spec.ps)
				refErr := ref.mapRegion(spec.name, spec.base, spec.size, spec.ps)
				if (err == nil) != (refErr == nil) {
					t.Fatalf("step %d: map %q: got %v, oracle %v", step, spec.name, err, refErr)
				}
			case 5: // SetPerms: a palette region gets another entry's permissions
				name := fuzzRegions[int(b[1])%len(fuzzRegions)].name
				ps := fuzzRegions[int(b[2])%len(fuzzRegions)].ps
				err := m.SetPerms(name, ps)
				refErr := ref.setPerms(name, ps)
				if (err == nil) != (refErr == nil) {
					t.Fatalf("step %d: set perms %q: got %v, oracle %v", step, name, err, refErr)
				}
			case 6: // Snapshot and cross-check DiffFrames
				snap = m.Snapshot()
				refSnap = append([]byte(nil), ref.data...)
				fallthrough
			case 7: // DiffFrames against the flat oracle
				if snap == nil {
					continue
				}
				dirty, err := m.DiffFrames(snap)
				if err != nil {
					t.Fatalf("step %d: diff: %v", step, err)
				}
				var want []uint64
				for fr := uint64(0); fr < fuzzPhysSize/FrameSize; fr++ {
					a := fr * FrameSize
					if !bytes.Equal(ref.data[a:a+FrameSize], refSnap[a:a+FrameSize]) {
						want = append(want, fr)
					}
				}
				if fmt.Sprint(dirty) != fmt.Sprint(want) {
					t.Fatalf("step %d: dirty frames %v, oracle %v", step, dirty, want)
				}
				if op == 7 && b[1]&1 == 1 { // sometimes restore
					if err := m.Restore(snap); err != nil {
						t.Fatalf("step %d: restore: %v", step, err)
					}
					copy(ref.data, refSnap)
				}
			case 8: // ReadU64
				got, err := m.ReadU64(priv, addr)
				want := ref.access(priv, Read, addr, 8)
				if !sameFault(err, want) {
					t.Fatalf("step %d: readU64(%v,%#x) fault mismatch: got %v want %v", step, priv, addr, err, want)
				}
				if err == nil && got != binary.LittleEndian.Uint64(ref.data[addr:]) {
					t.Fatalf("step %d: readU64(%v,%#x) = %#x, oracle %#x", step, priv, addr, got, binary.LittleEndian.Uint64(ref.data[addr:]))
				}
			case 9: // WriteU64
				v := n*0x9E3779B97F4A7C15 ^ uint64(b[1])
				err := m.WriteU64(priv, addr, v)
				want := ref.access(priv, Write, addr, 8)
				if !sameFault(err, want) {
					t.Fatalf("step %d: writeU64(%v,%#x) fault mismatch: got %v want %v", step, priv, addr, err, want)
				}
				if err == nil {
					binary.LittleEndian.PutUint64(ref.data[addr:], v)
				}
			}
		}
	})
}
