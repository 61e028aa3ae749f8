package patchserver

import (
	"container/list"
	"sync"
)

// buildKey identifies one cacheable build artifact: the target's exact
// build configuration plus the CVE. Two targets with the same key
// receive byte-identical plaintext patches (patch.Encode is a pure
// function of the built patch), so the expensive double kernel build
// only ever needs to happen once per key.
type buildKey struct {
	version string
	ftrace  bool
	inline  bool
	cve     string
}

// buildOutcome says how getOrBuild satisfied a request.
type buildOutcome int

const (
	// outcomeHit served a previously built artifact from the cache.
	outcomeHit buildOutcome = iota
	// outcomeBuilt ran the build (cache miss, this caller led).
	outcomeBuilt
	// outcomeCoalesced waited on a concurrent caller's in-flight build
	// for the same key (single-flight deduplication).
	outcomeCoalesced
)

// flight is one in-progress build other callers can wait on.
type flight struct {
	done  chan struct{}
	plain []byte
	err   error
}

// buildCache is a bounded LRU of built plaintext patch artifacts with
// single-flight deduplication: concurrent requests for the same key
// share one build, later requests hit the cache until the entry is
// evicted. Cached values are plaintext (pre-encryption) — per-session
// encryption stays per-client, so caching never shares key material
// across targets.
type buildCache struct {
	mu       sync.Mutex
	capacity int        // <0 disables retention (single-flight only)
	lru      *list.List // front = most recently used; values are *cacheEntry
	entries  map[buildKey]*list.Element
	inflight map[buildKey]*flight
}

type cacheEntry struct {
	key   buildKey
	plain []byte
}

// newBuildCache builds a cache holding at most capacity entries.
// capacity < 0 disables retention entirely; single-flight coalescing
// of concurrent identical builds still applies.
func newBuildCache(capacity int) *buildCache {
	return &buildCache{
		capacity: capacity,
		lru:      list.New(),
		entries:  make(map[buildKey]*list.Element),
		inflight: make(map[buildKey]*flight),
	}
}

// getOrBuild returns the plaintext artifact for key, building it with
// build on a miss. Exactly one caller runs build per key at a time:
// concurrent callers for the same key block on the leader's flight and
// share its result (including its error — a failed build fails the
// whole coalesced group, each caller may retry). The returned slice is
// shared and must be treated as read-only. evicted reports how many
// entries this call pushed out of the LRU.
func (c *buildCache) getOrBuild(key buildKey, build func() ([]byte, error)) (plain []byte, outcome buildOutcome, evicted int, err error) {
	c.mu.Lock()
	if el, ok := c.entries[key]; ok {
		c.lru.MoveToFront(el)
		plain := el.Value.(*cacheEntry).plain
		c.mu.Unlock()
		return plain, outcomeHit, 0, nil
	}
	if fl, ok := c.inflight[key]; ok {
		c.mu.Unlock()
		<-fl.done
		return fl.plain, outcomeCoalesced, 0, fl.err
	}
	fl := &flight{done: make(chan struct{})}
	c.inflight[key] = fl
	c.mu.Unlock()

	fl.plain, fl.err = build()

	c.mu.Lock()
	delete(c.inflight, key)
	if fl.err == nil && c.capacity >= 0 {
		// A racing invalidate between unlock and here already removed
		// any stale entry; insert fresh and trim to capacity.
		if el, ok := c.entries[key]; ok {
			c.lru.Remove(el)
		}
		c.entries[key] = c.lru.PushFront(&cacheEntry{key: key, plain: fl.plain})
		for c.capacity > 0 && c.lru.Len() > c.capacity {
			oldest := c.lru.Back()
			c.lru.Remove(oldest)
			delete(c.entries, oldest.Value.(*cacheEntry).key)
			evicted++
		}
	}
	c.mu.Unlock()
	close(fl.done)
	return fl.plain, outcomeBuilt, evicted, fl.err
}

// invalidate drops the entry for key, if cached. In-flight builds are
// not interrupted; their result still lands in the cache.
func (c *buildCache) invalidate(key buildKey) {
	c.mu.Lock()
	defer c.mu.Unlock()
	if el, ok := c.entries[key]; ok {
		c.lru.Remove(el)
		delete(c.entries, key)
	}
}

// invalidateCVE drops every cached artifact for the CVE across all
// build configurations — a re-registered (revised) patch must never be
// served from a stale build.
func (c *buildCache) invalidateCVE(cve string) {
	c.mu.Lock()
	defer c.mu.Unlock()
	for key, el := range c.entries {
		if key.cve == cve {
			c.lru.Remove(el)
			delete(c.entries, key)
		}
	}
}

// flush empties the cache.
func (c *buildCache) flush() {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.lru.Init()
	c.entries = make(map[buildKey]*list.Element)
}

// len reports the number of retained entries.
func (c *buildCache) len() int {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.lru.Len()
}
