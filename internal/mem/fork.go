package mem

import "sync/atomic"

// Copy-on-write forking. Fork produces a child Physical that starts
// byte-identical to the parent while sharing every resident leaf with
// it: the fork copies only the root (one pointer per 1 MiB leaf, 2 KB
// for 256 MiB), like Snapshot, and the first write on either side
// path-copies one leaf and then the one 4 KiB page it touches. This is
// the memory half of template-fork provisioning — boot one template
// machine, then stamp out fleet targets whose marginal footprint is
// just their private dirty set (see ResidentStats).

// Fork returns a new Physical whose contents, region table, and code
// epoch are identical to m's at the instant of the call.
//
// Contents are shared copy-on-write: every resident leaf is marked
// shared (exactly as Snapshot does) and referenced from both roots,
// so later writes on either side copy privately and are never visible
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
// page shard), but callers must not Map/SetPerms on m during
// the call; Fork holds mapMu to exclude that. The child records m as
// its origin, so snapshots of m (or of m's own ancestors) remain valid
// arguments to the child's Restore/DiffFrames.
func (m *Physical) Fork() *Physical {
	child := &Physical{
		size:   m.size,
		root:   make([]atomic.Pointer[leaf], len(m.root)),
		origin: m,
	}

	// Region table first, under mapMu, so the geometry/permission view
	// and the page contents are captured against the same quiescent
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

	// Share every resident leaf copy-on-write. The shared flag must be
	// set before the leaf pointer is published into the child — that
	// ordering (plus the all-shard lock against concurrent parent
	// writers) is what makes "shared==false implies reachable from one
	// root" hold across both stores.
	m.lockMask(^uint64(0), true)
	for i := range m.root {
		if l := m.root[i].Load(); l != nil {
			share(&l.shared)
			child.root[i].Store(l)
		}
	}
	m.unlockMask(^uint64(0), true)
	m.mapMu.Unlock()

	return child
}

// Origin returns the Physical this one was forked from, or nil for a
// root (non-forked) Physical.
func (m *Physical) Origin() *Physical { return m.origin }
