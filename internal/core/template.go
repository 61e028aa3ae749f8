package core

import (
	"context"
	cryptorand "crypto/rand"
	"errors"
	"fmt"
	"io"
	"maps"
	"slices"
	"sync"
	"sync/atomic"

	"kshot/internal/isa"
	"kshot/internal/kcrypto"
	"kshot/internal/kernel"
	"kshot/internal/machine"
	"kshot/internal/mem"
	"kshot/internal/obs"
	"kshot/internal/patchserver"
	"kshot/internal/sgx"
	"kshot/internal/sgxprep"
	"kshot/internal/timing"
)

// Template-fork provisioning, the only way a System is built: booting
// a target is dominated by the kernel build and machine bring-up, yet
// every System for the same (version, ftrace, inline, extra-files,
// dispatch, vCPUs) configuration boots bit-identical memory. A
// Template pays that cost once, halting just before anything
// per-target exists — no SMRAM, no keys, no RNG state, no server
// connection — and Fork stamps out live Systems by COW-sharing its
// frames. Everything secret is provisioned per fork, after the fork:
// each one gets a fresh attestation key, a fresh derived-session
// channel root, its own clock/model, and only then is its SMRAM
// locked. The template itself never holds a secret a fork could
// inherit.

// ErrTemplateClosed is returned by Fork, and by NewSystemCtx through a
// closed TemplateCache.
var ErrTemplateClosed = errors.New("core: template closed")

// Template is an immutable booted target machine used as a COW fork
// source. Its machine never runs again after construction; forks share
// its clean frames and copy on first write.
type Template struct {
	opts Options // canonicalized; per-fork fields ignored
	m    *machine.Machine
	k    *kernel.Kernel
	info patchserver.OSInfo
	meas sgx.Measurement // expected enclave identity, same for every fork

	// root is the template-generation secret forks derive their
	// per-fork channel roots from. It never leaves the host-side
	// provisioner — it is not written into template memory, so no fork
	// can read a sibling's root out of shared frames.
	root []byte

	// rng serves fork-time key material when the options don't supply
	// a deterministic source; locked because forks are concurrent.
	rngMu sync.Mutex
	rng   io.Reader

	closed atomic.Bool
}

// NewTemplate boots a template machine for the given configuration.
// The boot stops right before per-target provisioning: kernel built
// and initialized, no SMM controller, no keys, no server contact.
func NewTemplate(ctx context.Context, opts Options) (*Template, error) {
	if err := opts.Validate(); err != nil {
		return nil, err
	}
	opts = withDefaults(opts)
	m, k, info, err := bootTarget(ctx, opts)
	if err != nil {
		return nil, err
	}
	rng := opts.Rand
	if rng == nil {
		rng = cryptorand.Reader
	}
	root := make([]byte, 32)
	if _, err := io.ReadFull(rng, root); err != nil {
		m.Stop()
		return nil, fmt.Errorf("core: template root: %w", err)
	}
	return &Template{
		opts: opts, m: m, k: k, info: info,
		meas: sgx.MeasureIdentity(sgxprep.Identity(opts.Version)),
		root: root, rng: rng,
	}, nil
}

// Machine exposes the template's (quiescent) machine — tests diff fork
// memory against it to prove isolation.
func (t *Template) Machine() *machine.Machine { return t.m }

// Info returns the OS identity forks attest to the patch server.
func (t *Template) Info() patchserver.OSInfo { return t.info }

// Close stops the template machine. Live forks keep working: their
// Physicals hold the shared frames directly.
func (t *Template) Close() {
	if t.closed.CompareAndSwap(false, true) {
		t.m.Stop()
	}
}

// forkEntropy draws n key-material bytes for one fork.
func (t *Template) forkEntropy(opts Options, n int) ([]byte, error) {
	buf := make([]byte, n)
	if opts.Rand != nil {
		_, err := io.ReadFull(opts.Rand, buf)
		return buf, err
	}
	t.rngMu.Lock()
	defer t.rngMu.Unlock()
	_, err := io.ReadFull(t.rng, buf)
	return buf, err
}

// Fork provisions a live System from the template: COW-fork the
// machine, rebind the kernel view, then run the per-target half of
// provisioning — fresh clock and cost model, fresh attestation key,
// a per-fork derived-session root, SMM handler install, and SMRAM
// lock. No network and no guest-memory write happens here; the server
// attach and the bootstrap key-exchange SMI are deferred to first use
// (see System.Attach).
//
// Per-fork options (ServerAddr, HashAlg, Rand, CheckActiveness, retry
// knobs) are honored from opts; configuration baked into the template
// (version, build config, extra files, dispatch, vCPUs) comes from the
// template regardless of what opts says.
func (t *Template) Fork(ctx context.Context, opts Options) (*System, error) {
	if t.closed.Load() {
		return nil, ErrTemplateClosed
	}
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	opts = withDefaults(opts)

	m2, err := t.m.Fork()
	if err != nil {
		return nil, err
	}
	k2, err := t.k.Fork(m2)
	if err != nil {
		m2.Stop()
		return nil, err
	}

	// Per-fork channel root: derived from the template root and fresh
	// entropy, so every fork's SMM/enclave sessions key differently
	// even though they share every clean frame.
	salt, err := t.forkEntropy(opts, 32)
	if err != nil {
		m2.Stop()
		return nil, fmt.Errorf("core: fork root: %w", err)
	}
	forkRoot := kcrypto.DeriveKey(t.root, salt)

	clock := &timing.Clock{}
	model := timing.Calibrated()
	rng := opts.Rand
	if rng == nil {
		rng = cryptorand.Reader
	}
	ctrl, handler, attKey, err := provisionSMM(opts, m2, k2, clock, model, rng, forkRoot)
	if err != nil {
		m2.Stop()
		return nil, err
	}

	s := &System{
		Machine:     m2,
		Kernel:      k2,
		SMM:         ctrl,
		Handler:     handler,
		Clock:       clock,
		Model:       model,
		info:        t.info,
		serverAddr:  opts.ServerAddr,
		meas:        t.meas,
		attKey:      attKey,
		hashAlg:     opts.HashAlg,
		rng:         opts.Rand,
		sessionRoot: forkRoot,

		dialRetries:    opts.DialRetries,
		requestRetries: opts.RequestRetries,
		retryBackoff:   opts.RetryBackoff,

		helperPriv: mem.PrivUser,

		// The bootstrap key-exchange SMI, which publishes the channel
		// nonce, is deferred to first server contact along with the
		// attach. Until then the fork has written nothing: its private
		// frame set is empty and its marginal memory cost is exactly
		// zero.
		needBootstrap: true,
	}
	return s, nil
}

// templateKey is the scalar part of the configuration a template bakes
// in; the cache matches the rest, ExtraFiles, per entry. Everything
// per-fork — server address, hash algorithm, entropy source,
// activeness checking, retry knobs — is deliberately excluded, so
// Systems differing only in those share one template.
type templateKey struct {
	version        string
	ftrace, inline bool
	dispatch       isa.Dispatch
	vcpus          int
}

// TemplateCacheStats is a point-in-time view of cache traffic.
type TemplateCacheStats struct {
	// Hits counts provisionings served by an already-built (or
	// in-flight) template; Misses counts the ones that paid a template
	// boot; Forks counts successfully forked Systems.
	Hits, Misses, Forks int64
	// Templates is the number of distinct configurations cached.
	Templates int
}

// tcEntry is one singleflight slot: ready closes once the template
// boot finished (tpl or err set, never both). files is the entry's own
// copy of the configuration's ExtraFiles, so a caller editing its map
// later cannot change what the entry matches.
type tcEntry struct {
	files map[string]string
	ready chan struct{}
	tpl   *Template
	err   error
}

// TemplateCache shares one booted template per configuration among
// the Systems provisioned with it as Options.TemplateCache. The first
// System for a configuration boots the template (concurrent requests for the same configuration wait on
// that one boot — singleflight); every later System is a COW fork.
// Failed template boots are not cached: the slot is cleared so a later
// call retries.
type TemplateCache struct {
	mu      sync.Mutex
	entries map[templateKey][]*tcEntry
	closed  bool

	obs                 atomic.Pointer[obs.Hooks]
	hits, misses, forks atomic.Int64
}

// NewTemplateCache builds an empty cache.
func NewTemplateCache() *TemplateCache {
	return &TemplateCache{entries: make(map[templateKey][]*tcEntry)}
}

// SetObserver installs observability hooks; template-cache traffic is
// counted under obs.CtrTemplateHits/Misses/Forks.
func (c *TemplateCache) SetObserver(ob *obs.Hooks) {
	c.obs.Store(ob)
}

func (c *TemplateCache) count(name string, ctr *atomic.Int64) {
	ctr.Add(1)
	c.obs.Load().Count(name, 1)
}

// Stats returns cache traffic counters.
func (c *TemplateCache) Stats() TemplateCacheStats {
	c.mu.Lock()
	n := 0
	for _, es := range c.entries {
		n += len(es)
	}
	c.mu.Unlock()
	return TemplateCacheStats{
		Hits:      c.hits.Load(),
		Misses:    c.misses.Load(),
		Forks:     c.forks.Load(),
		Templates: n,
	}
}

// provision forks a System for canonicalized opts: from the
// singleflight template of opts.TemplateCache when set, else from a
// single-use template booted for this System alone and closed once
// forked (the fork keeps the shared frames alive).
func provision(ctx context.Context, opts Options) (*System, error) {
	c := opts.TemplateCache
	if c == nil {
		tpl, err := NewTemplate(ctx, opts)
		if err != nil {
			return nil, err
		}
		defer tpl.Close()
		return tpl.Fork(ctx, opts)
	}
	tpl, err := c.template(ctx, opts)
	if err != nil {
		return nil, err
	}
	s, err := tpl.Fork(ctx, opts)
	if err != nil {
		return nil, err
	}
	c.count(obs.CtrTemplateForks, &c.forks)
	return s, nil
}

// lookupLocked returns the entry for key whose files equal files, or
// nil. Callers usually pass one shared map, and comparing two strings
// that share their bytes stops at the pointer, so a hit walks the map
// without reading file contents. Callers hold c.mu.
func (c *TemplateCache) lookupLocked(key templateKey, files map[string]string) *tcEntry {
	for _, e := range c.entries[key] {
		if maps.Equal(e.files, files) {
			return e
		}
	}
	return nil
}

// template returns the singleflight template for opts' configuration.
func (c *TemplateCache) template(ctx context.Context, opts Options) (*Template, error) {
	key := templateKey{
		version:  opts.Version,
		ftrace:   !opts.DisableFtrace,
		inline:   !opts.DisableInline,
		dispatch: opts.Dispatch,
		vcpus:    opts.NumVCPUs,
	}

	c.mu.Lock()
	if c.closed {
		c.mu.Unlock()
		return nil, ErrTemplateClosed
	}
	if e := c.lookupLocked(key, opts.ExtraFiles); e != nil {
		c.mu.Unlock()
		c.count(obs.CtrTemplateHits, &c.hits)
		select {
		case <-e.ready:
			return e.tpl, e.err
		case <-ctx.Done():
			return nil, ctx.Err()
		}
	}
	e := &tcEntry{files: maps.Clone(opts.ExtraFiles), ready: make(chan struct{})}
	c.entries[key] = append(c.entries[key], e)
	c.mu.Unlock()
	c.count(obs.CtrTemplateMisses, &c.misses)

	tpl, err := NewTemplate(ctx, opts)
	if err != nil {
		// Don't cache failure — drop the slot so a later call retries
		// (unless Close already cleared it).
		c.mu.Lock()
		if rest := slices.DeleteFunc(c.entries[key], func(x *tcEntry) bool { return x == e }); len(rest) > 0 {
			c.entries[key] = rest
		} else {
			delete(c.entries, key)
		}
		c.mu.Unlock()
		e.err = err
		close(e.ready)
		return nil, err
	}
	e.tpl = tpl
	close(e.ready)
	return tpl, nil
}

// Close stops every cached template. In-flight template boots finish
// and are stopped by their booter; live forked Systems are unaffected.
func (c *TemplateCache) Close() {
	c.mu.Lock()
	c.closed = true
	var entries []*tcEntry
	for _, es := range c.entries {
		entries = append(entries, es...)
	}
	c.entries = make(map[templateKey][]*tcEntry)
	c.mu.Unlock()
	for _, e := range entries {
		<-e.ready
		if e.tpl != nil {
			e.tpl.Close()
		}
	}
}
