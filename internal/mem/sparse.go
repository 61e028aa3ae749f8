package mem

import (
	"bytes"
	"math/bits"
	"sync"
	"sync/atomic"
)

// Sparse page store. Physical memory is split into 4 KiB pages,
// materialized on first write and reached through a two-level table:
// the root has one slot per 1 MiB leaf, and a leaf has one slot per
// page. A nil leaf or page slot reads as zeros. Page access is guarded
// by sharded rwmutexes (shard = page index mod lockShards) so
// concurrent vCPUs touching disjoint pages never serialize on a global
// lock, while accesses to the same page still serialize and keep the
// simulator data-race free.
//
// Snapshot, Fork and Restore copy or swap only the root and mark its
// leaves shared. The first write under a shared leaf path-copies that
// leaf (256 page pointers) and then copies the one page it writes. A
// leaf or page pointer that still matches the snapshot's therefore
// proves its bytes untouched, which is what lets DiffFrames find dirty
// memory without comparing (or even allocating) the clean majority.
//
// A released Physical (Release) hands the leaves and pages it owns
// alone to package-wide pools, and Zero hands over the wholly cleared
// pages it owns alone; a recycled leaf comes back empty and a recycled
// page is cleared whole before reuse.
//
// Ownership rules. Each shared flag is set-only: an object becomes
// exclusive again only as a fresh copy.
//
//   - A leaf with shared == false is reachable from exactly one root. A
//     page with shared == false is reachable from exactly one leaf. A
//     Physical owns a page alone when the page and its leaf are both
//     unshared. Only such pages, and unshared leaves, go back to their
//     pools.
//   - Fork, Snapshot and Restore mark leaves shared under every shard
//     lock. They touch no page.
//   - A shared leaf never changes. A writer holds its page's shard. It
//     path-copies an absent or shared leaf, and it marks every page it
//     copies shared before it publishes the copy with CompareAndSwap on
//     the root slot; a writer that loses the race puts its copy back
//     and retries. Under its own leaf it writes an unshared page in
//     place and copies a shared one.
//   - A reader holds its page's shard and loads the leaf, then the page.
//
// TestConcurrentLeafCopy races the path copy, TestRelease pins what
// goes back to the pools, and FuzzForkMem checks the rules end to end
// against a flat oracle.

const (
	// FrameShift is log2 of the frame size.
	FrameShift = 12
	// FrameSize is the allocation and copy-on-write granule of the
	// sparse store: one page.
	FrameSize = 1 << FrameShift

	// leafShift is log2 of the pages per leaf.
	leafShift = 8
	// leafPages is the number of page slots in a leaf.
	leafPages = 1 << leafShift
	// leafSpan is the bytes one leaf covers (1 MiB).
	leafSpan = FrameSize << leafShift

	// lockShards is the number of page-lock shards. It must be a
	// power of two no larger than 64 (shard sets are tracked in a
	// uint64 bitmask).
	lockShards = 64
)

// page is one 4 KiB unit of backing storage.
type page struct {
	// shared is set once a second leaf may reference the page; writers
	// must copy it instead of mutating it in place. It is atomic rather
	// than shard-lock protected because after Fork the same page is
	// reachable from Physicals with independent shard locks.
	shared atomic.Bool
	data   [FrameSize]byte
}

// leaf is one 1 MiB slice of the page table.
type leaf struct {
	// shared is set once a second root (a snapshot or another
	// Physical) may reference the leaf. A shared leaf never changes.
	shared atomic.Bool
	pages  [leafPages]atomic.Pointer[page]
}

// at returns page slot j of l, or nil when l is absent.
func (l *leaf) at(j uint64) *page {
	if l == nil {
		return nil
	}
	return l.pages[j].Load()
}

// Pools of the pages and leaves released Physicals owned alone. A
// pooled leaf is empty; a pooled page still holds its old bytes.
var (
	pagePool = sync.Pool{New: func() any { return new(page) }}
	leafPool = sync.Pool{New: func() any { return new(leaf) }}
)

// share sets a shared flag. It skips the store when the flag is
// already set: a template's flags sit beside bytes every fork reads.
func share(f *atomic.Bool) {
	if !f.Load() {
		f.Store(true)
	}
}

// shardMask returns the bitmask of lock shards covering pages
// [first, last].
func shardMask(first, last uint64) uint64 {
	if last-first+1 >= lockShards {
		return ^uint64(0)
	}
	var mask uint64
	for f := first; f <= last; f++ {
		mask |= 1 << (f & (lockShards - 1))
	}
	return mask
}

// lockMask acquires the shards in mask, in ascending shard order (the
// global lock order that makes multi-shard holders deadlock-free).
func (m *Physical) lockMask(mask uint64, write bool) {
	for ; mask != 0; mask &= mask - 1 {
		if mu := &m.shards[bits.TrailingZeros64(mask)]; write {
			mu.Lock()
		} else {
			mu.RLock()
		}
	}
}

func (m *Physical) unlockMask(mask uint64, write bool) {
	for ; mask != 0; mask &= mask - 1 {
		if mu := &m.shards[bits.TrailingZeros64(mask)]; write {
			mu.Unlock()
		} else {
			mu.RUnlock()
		}
	}
}

// pageAt returns page idx, or nil when it is absent. The caller holds
// the page's shard.
func (m *Physical) pageAt(idx uint64) *page {
	return m.root[idx>>leafShift].Load().at(idx & (leafPages - 1))
}

// ownLeaf returns leaf i of m's root, path-copying it first when it
// is absent or shared. The caller holds the shard of the page it is
// about to write; writers of the leaf's other pages may race here, so
// the copy is published with CompareAndSwap and a loser retries.
func (m *Physical) ownLeaf(i uint64) *leaf {
	slot := &m.root[i]
	for {
		old := slot.Load()
		if old != nil && !old.shared.Load() {
			return old
		}
		l := leafPool.Get().(*leaf)
		if old != nil {
			for j := range old.pages {
				if pg := old.pages[j].Load(); pg != nil {
					share(&pg.shared)
					l.pages[j].Store(pg)
				}
			}
		}
		if slot.CompareAndSwap(old, l) {
			return l
		}
		// Drop the copied pointers only: the pages stay with old.
		for j := range l.pages {
			l.pages[j].Store(nil)
		}
		leafPool.Put(l)
	}
}

// writablePage returns page idx as m's own, path-copying its leaf and
// then materializing an absent page or copying a shared one. The
// caller holds the page's shard exclusively.
func (m *Physical) writablePage(idx uint64) *page {
	slot := &m.ownLeaf(idx >> leafShift).pages[idx&(leafPages-1)]
	pg := slot.Load()
	switch {
	case pg == nil:
		pg = pagePool.Get().(*page)
		clear(pg.data[:])
		slot.Store(pg)
	case pg.shared.Load():
		src := pg
		pg = pagePool.Get().(*page)
		pg.data = src.data
		slot.Store(pg)
	}
	return pg
}

// readFrames copies [addr, addr+len(dst)) into dst. The span must be
// pre-validated and in bounds. A span inside one page — nearly every
// guest access — takes that page's shard directly.
func (m *Physical) readFrames(addr uint64, dst []byte) {
	first, last := addr>>FrameShift, (addr+uint64(len(dst))-1)>>FrameShift
	if first == last {
		mu := &m.shards[first&(lockShards-1)]
		mu.RLock()
		m.readFrame(addr, dst)
		mu.RUnlock()
		return
	}
	mask := shardMask(first, last)
	m.lockMask(mask, false)
	for off := 0; off < len(dst); {
		off += m.readFrame(addr+uint64(off), dst[off:])
	}
	m.unlockMask(mask, false)
}

// readFrame copies bytes from addr into dst up to the end of addr's
// page and returns how many it copied. The caller holds the shard.
func (m *Physical) readFrame(addr uint64, dst []byte) int {
	off := addr & (FrameSize - 1)
	if pg := m.pageAt(addr >> FrameShift); pg != nil {
		return copy(dst, pg.data[off:])
	}
	n := min(len(dst), int(FrameSize-off))
	clear(dst[:n])
	return n
}

// writeFrames copies src to [addr, addr+len(src)), materializing or
// copying pages as needed. The span must be pre-validated and in
// bounds. Holding every covered shard for the whole span keeps
// multi-page writes atomic with respect to concurrent readers, like
// the single-mutex store this replaces; a one-page span takes its
// shard directly.
func (m *Physical) writeFrames(addr uint64, src []byte) {
	first, last := addr>>FrameShift, (addr+uint64(len(src))-1)>>FrameShift
	if first == last {
		mu := &m.shards[first&(lockShards-1)]
		mu.Lock()
		m.writeFrame(addr, src)
		mu.Unlock()
		return
	}
	mask := shardMask(first, last)
	m.lockMask(mask, true)
	for off := 0; off < len(src); {
		off += m.writeFrame(addr+uint64(off), src[off:])
	}
	m.unlockMask(mask, true)
}

// writeFrame copies src to addr up to the end of addr's page and
// returns how many bytes it copied. The caller holds the shard
// exclusively.
func (m *Physical) writeFrame(addr uint64, src []byte) int {
	return copy(m.writablePage(addr >> FrameShift).data[addr&(FrameSize-1):], src)
}

// zeroFrames clears [addr, addr+n): wholly covered pages are dropped
// (a nil slot reads as zeros) and, when m owns them alone, go back to
// the page pool; partially covered edge pages are cleared in place
// (after a copy if shared). Absent pages are already zero and are
// skipped.
func (m *Physical) zeroFrames(addr, n uint64) {
	first := addr >> FrameShift
	last := (addr + n - 1) >> FrameShift
	mask := shardMask(first, last)
	m.lockMask(mask, true)
	for cur := addr; cur < addr+n; {
		idx := cur >> FrameShift
		base := idx << FrameShift
		end := min(base+FrameSize, addr+n)
		switch {
		case m.pageAt(idx) == nil:
		case cur == base && end == base+FrameSize:
			slot := &m.ownLeaf(idx >> leafShift).pages[idx&(leafPages-1)]
			if pg := slot.Swap(nil); !pg.shared.Load() {
				pagePool.Put(pg)
			}
		default:
			clear(m.writablePage(idx).data[cur-base : end-base])
		}
		cur = end
	}
	m.unlockMask(mask, true)
}

// Release ends m's lifetime and recycles its memory. Every root slot
// is emptied; the leaves m owned alone (shared == false) are emptied
// too and go back to the leaf pool, and their unshared pages to the
// page pool. Leaves and pages a snapshot, the fork template or a
// sibling fork can still reach are only dropped, so their owners keep
// them byte for byte. Release also publishes an empty region table:
// any later Read, Write, Fetch or Zero faults as unmapped rather than
// reading zeros. An access that validated just before Release runs
// against the emptied root under the shard locks, so it never reaches
// a recycled page. Releasing twice is a no-op.
func (m *Physical) Release() {
	m.mapMu.Lock()
	tab := m.tab.Load()
	if tab.released {
		m.mapMu.Unlock()
		return
	}
	m.tab.Store(&regionTable{epoch: tab.epoch + 1, byName: map[string]*Region{}, released: true})
	m.codeGen.Add(1)
	m.mapMu.Unlock()

	m.lockMask(^uint64(0), true)
	for i := range m.root {
		l := m.root[i].Load()
		if l == nil {
			continue
		}
		m.root[i].Store(nil)
		if l.shared.Load() {
			continue
		}
		for j := range l.pages {
			pg := l.pages[j].Load()
			if pg == nil {
				continue
			}
			l.pages[j].Store(nil)
			if !pg.shared.Load() {
				pagePool.Put(pg)
			}
		}
		leafPool.Put(l)
	}
	m.unlockMask(^uint64(0), true)
}

// ResidentStats counts the bytes of backing storage currently
// materialized (the sparse store's actual footprint, as opposed to
// Size(), the simulated physical size), split by ownership.
type ResidentStats struct {
	// SharedBytes counts resident pages that may also back a
	// snapshot, the fork template, or sibling forks — the memory a
	// fleet of forks amortizes across targets.
	SharedBytes uint64
	// PrivateBytes counts resident pages this Physical owns
	// alone — its copy-on-write dirty set.
	PrivateBytes uint64
}

// ResidentStats returns the materialized footprint split into pages
// shared with snapshots/forks versus pages private to this Physical.
// For a forked System the private figure is the true marginal memory
// cost of that fork.
func (m *Physical) ResidentStats() ResidentStats {
	var st ResidentStats
	m.lockMask(^uint64(0), false)
	for i := range m.root {
		l := m.root[i].Load()
		if l == nil {
			continue
		}
		for j := range l.pages {
			switch pg := l.pages[j].Load(); {
			case pg == nil:
			case l.shared.Load() || pg.shared.Load():
				st.SharedBytes += FrameSize
			default:
				st.PrivateBytes += FrameSize
			}
		}
	}
	m.unlockMask(^uint64(0), false)
	return st
}

// Snapshot is a copy-on-write capture of a Physical's contents: a copy
// of its root. Taking one copies no memory and touches no page; the
// store copies a leaf and a page only when they are next written.
// Snapshots stay valid until the Physical is garbage; Restore and
// DiffFrames accept only snapshots of the same Physical.
type Snapshot struct {
	m    *Physical
	root []*leaf // nil entries are all-zero leaves
}

// Snapshot captures the current memory contents copy-on-write. It does
// not capture the region table: mappings and permissions evolve
// independently of contents, exactly as physical RAM is independent of
// attribute programming.
func (m *Physical) Snapshot() *Snapshot {
	s := &Snapshot{m: m, root: make([]*leaf, len(m.root))}
	m.lockMask(^uint64(0), true)
	for i := range m.root {
		if l := m.root[i].Load(); l != nil {
			share(&l.shared)
			s.root[i] = l
		}
	}
	m.unlockMask(^uint64(0), true)
	return s
}

// Restore rewinds memory contents to the snapshot. The snapshot
// remains valid (and copy-on-write protected), so the same snapshot
// can be restored repeatedly — the reset step of a chaos cycle. A
// forked Physical may also restore a snapshot of any ancestor in its
// fork chain (rewinding the fork to template state); the ancestor is
// unaffected, since restored leaves stay copy-on-write.
func (m *Physical) Restore(s *Snapshot) error {
	if s == nil || !m.ownsSnapshot(s) {
		return errSnapshotForeign
	}
	m.lockMask(^uint64(0), true)
	for i, l := range s.root {
		if l != nil {
			share(&l.shared)
		}
		m.root[i].Store(l)
	}
	m.unlockMask(^uint64(0), true)
	// Restoring swaps page contents without going through access(), so
	// any cached code translation may now be stale.
	m.codeGen.Add(1)
	return nil
}

// DiffFrames returns the indices of frames (pages) whose bytes differ
// from the snapshot, in ascending order. A leaf still pointer-equal to
// the snapshot's is skipped whole, and a page still sharing the
// snapshot's backing pointer is skipped without a byte compare; only
// pages written since the snapshot (or written before it and zeroed
// since, etc.) are compared content-wise, so a pristine-byte sweep
// costs O(dirty), not O(physical size). Use FrameAddr to map an index
// to its physical base address.
func (m *Physical) DiffFrames(s *Snapshot) ([]uint64, error) {
	return m.diffFrames(s, 0, m.size)
}

// DiffFramesIn is DiffFrames restricted to frames overlapping
// [base, base+size).
func (m *Physical) DiffFramesIn(s *Snapshot, base, size uint64) ([]uint64, error) {
	return m.diffFrames(s, base, size)
}

var errSnapshotForeign = errSnapshot{}

type errSnapshot struct{}

func (errSnapshot) Error() string { return "mem: snapshot belongs to a different Physical" }

// ownsSnapshot reports whether s was taken of m or of an ancestor in
// m's fork chain. Ancestor snapshots are byte-compatible: Fork
// preserves size and table geometry, so diffing a fork against its
// template's snapshot is exactly the "what did this fork touch?"
// question the isolation suite asks.
func (m *Physical) ownsSnapshot(s *Snapshot) bool {
	for p := m; p != nil; p = p.origin {
		if s.m == p {
			return true
		}
	}
	return false
}

func (m *Physical) diffFrames(s *Snapshot, base, size uint64) ([]uint64, error) {
	if s == nil || !m.ownsSnapshot(s) {
		return nil, errSnapshotForeign
	}
	if size == 0 {
		return nil, nil
	}
	first := base >> FrameShift
	last := min((base+size-1)>>FrameShift, (m.size-1)>>FrameShift)
	var dirty []uint64
	m.lockMask(^uint64(0), false)
	for idx := first; idx <= last; {
		li := idx >> leafShift
		end := min(last, (li+1)<<leafShift-1)
		// Shared leaves and pages never mutate, so pointer-equal
		// means byte-equal.
		if cur, old := m.root[li].Load(), s.root[li]; cur != old {
			for ; idx <= end; idx++ {
				j := idx & (leafPages - 1)
				if !pagesEqual(cur.at(j), old.at(j)) {
					dirty = append(dirty, idx)
				}
			}
		}
		idx = end + 1
	}
	m.unlockMask(^uint64(0), false)
	return dirty, nil
}

// pagesEqual compares two pages, treating nil as all zeros.
func pagesEqual(a, b *page) bool {
	switch {
	case a == b:
		return true
	case a == nil:
		return isZero(b.data[:])
	case b == nil:
		return isZero(a.data[:])
	default:
		return bytes.Equal(a.data[:], b.data[:])
	}
}

var zeroPageData [FrameSize]byte

func isZero(b []byte) bool { return bytes.Equal(b, zeroPageData[:]) }

// FrameAddr returns the physical base address of frame (page) idx.
func FrameAddr(idx uint64) uint64 { return idx << FrameShift }
