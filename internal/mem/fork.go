package mem

import "sync/atomic"

// Copy-on-write forking. Fork produces a child Physical that starts
// byte-identical to the parent while sharing every resident frame with
// it: the fork is O(frames) pointer work, like Snapshot, and the first
// write on either side clones only the touched 64 KiB frame. This is
// the memory half of template-fork provisioning — boot one template
// machine, then stamp out fleet targets whose marginal footprint is
// just their private dirty set (see ResidentStats).

// Fork returns a new Physical whose contents, region table, and code
// epoch are identical to m's at the instant of the call.
//
// Contents are shared copy-on-write: every resident frame is marked
// shared (exactly as Snapshot does) and referenced from both stores,
// so later writes on either side clone privately and are never visible
// to the other. The region table is duplicated with fresh Region
// objects carrying the same geometry and current permissions —
// SetPerms/Map on one side (e.g. the per-fork SMRAM lock) do not
// affect the other. The child's code epoch starts at the parent's
// value and advances independently; since a fork is always paired with
// fresh vCPUs (fresh block caches), per-fork epoch counting keeps the
// predecoded-block invalidation protocol sound without any cross-fork
// coordination.
//
// Fork may run concurrently with reads and writes on m (it holds every
// frame shard), but callers must not Map/SetPerms on m during
// the call; Fork holds mapMu to exclude that. The child records m as
// its origin, so snapshots of m (or of m's own ancestors) remain valid
// arguments to the child's Restore/DiffFrames.
func (m *Physical) Fork() *Physical {
	child := &Physical{
		size:   m.size,
		frames: make([]atomic.Pointer[frame], len(m.frames)),
		origin: m,
	}

	// Region table first, under mapMu, so the geometry/permission view
	// and the frame contents are captured against the same quiescent
	// mapping state.
	m.mapMu.Lock()
	tab := m.tab.Load()
	sorted := make([]*Region, len(tab.sorted))
	byName := make(map[string]*Region, len(tab.byName))
	for i, r := range tab.sorted {
		nr := &Region{Name: r.Name, Base: r.Base, Size: r.Size}
		nr.perms.Store(r.perms.Load())
		sorted[i] = nr
		byName[nr.Name] = nr
	}
	child.tab.Store(&regionTable{epoch: tab.epoch, sorted: sorted, byName: byName})
	child.codeGen.Store(m.codeGen.Load())

	// Share every resident frame copy-on-write. The shared flag must be
	// set before the frame pointer is published into the child — that
	// ordering (plus the all-shard lock against concurrent parent
	// writers) is what makes "shared==false implies exclusively owned"
	// hold across both stores.
	m.lockMask(^uint64(0), true)
	for i := range m.frames {
		fr := m.frames[i].Load()
		if fr == nil {
			continue // child slot is already nil; skip the write barrier
		}
		fr.shared.Store(true)
		child.frames[i].Store(fr)
	}
	m.unlockMask(^uint64(0), true)
	m.mapMu.Unlock()

	return child
}

// Origin returns the Physical this one was forked from, or nil for a
// root (non-forked) Physical.
func (m *Physical) Origin() *Physical { return m.origin }
