package core

import (
	"context"
	"maps"
	"math/rand"
	"sync"
	"testing"
	"time"

	"kshot/internal/cvebench"
	"kshot/internal/mem"
	"kshot/internal/obs"
	"kshot/internal/patchserver"
)

// templateFixture is a patch server plus the canonical options for a
// single-CVE target configuration.
type templateFixture struct {
	Server *patchserver.Server
	Entry  *cvebench.Entry
	Opts   Options
}

func newTemplateFixture(t *testing.T, cve string) *templateFixture {
	t.Helper()
	e, ok := cvebench.Get(cve)
	if !ok {
		t.Fatalf("unknown CVE %s", cve)
	}
	srv, err := patchserver.New(patchserver.WithTreeProvider(cvebench.TreeProviderFor(e)))
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(srv.Close)
	srv.RegisterPatch(e.SourcePatch())
	return &templateFixture{
		Server: srv,
		Entry:  e,
		Opts: Options{
			Version:    "4.4",
			NumVCPUs:   2,
			ExtraFiles: map[string]string{e.File: e.Vuln},
			ServerAddr: srv.Addr(),
			Rand:       &detRand{r: rand.New(rand.NewSource(42))},
		},
	}
}

func TestTemplateForkAppliesPatch(t *testing.T) {
	f := newTemplateFixture(t, "CVE-2014-0196")
	tpl, err := NewTemplate(context.Background(), f.Opts)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(tpl.Close)

	sys, err := tpl.Fork(context.Background(), f.Opts)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(sys.Close)

	res, err := f.Entry.Exploit(sys.Kernel, 0)
	if err != nil || !res.Vulnerable {
		t.Fatalf("fork not vulnerable before patch: %v %v", res, err)
	}
	rep, err := sys.Apply(context.Background(), f.Entry.CVE)
	if err != nil {
		t.Fatalf("Apply on fork: %v", err)
	}
	st := rep.Stages
	if st.Fetch <= 0 || st.Preprocess <= 0 || st.KeyGen <= 0 || st.Apply <= 0 {
		t.Errorf("fork stage times not all positive: %+v", st)
	}
	res, err = f.Entry.Exploit(sys.Kernel, 0)
	if err != nil || res.Vulnerable {
		t.Fatalf("fork still vulnerable after patch: %v %v", res, err)
	}
}

func TestForkIsolation(t *testing.T) {
	f := newTemplateFixture(t, "CVE-2014-0196")
	tpl, err := NewTemplate(context.Background(), f.Opts)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(tpl.Close)
	// Template frame baseline, taken before any fork exists.
	snap := tpl.m.Mem.Snapshot()

	a, err := tpl.Fork(context.Background(), f.Opts)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(a.Close)
	b, err := tpl.Fork(context.Background(), f.Opts)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(b.Close)

	// Patch fork a; run the exploit in fork b (which scribbles on b's
	// memory too).
	if _, err := a.Apply(context.Background(), f.Entry.CVE); err != nil {
		t.Fatal(err)
	}
	res, err := f.Entry.Exploit(b.Kernel, 0)
	if err != nil {
		t.Fatal(err)
	}
	if !res.Vulnerable {
		t.Error("sibling fork lost its vulnerability when the other fork was patched")
	}
	res, err = f.Entry.Exploit(a.Kernel, 0)
	if err != nil {
		t.Fatal(err)
	}
	if res.Vulnerable {
		t.Error("patched fork still vulnerable")
	}

	// Frame-level witness: the template's memory is bit-identical to
	// its pre-fork snapshot — no patch, exploit, SMRAM key, or journal
	// write in either fork reached a shared frame.
	dirty, err := tpl.m.Mem.DiffFrames(snap)
	if err != nil {
		t.Fatal(err)
	}
	if len(dirty) != 0 {
		t.Errorf("fork activity dirtied template frames %v", dirty)
	}

	// And the forks' SMM channels keyed differently: their published
	// credentials differ even though the machines started identical.
	if a.attKey == nil || string(a.attKey) == string(b.attKey) {
		t.Error("sibling forks share an attestation key")
	}
	if string(a.sessionRoot) == string(b.sessionRoot) {
		t.Error("sibling forks share a session root")
	}
}

func TestTemplateCacheSingleflight(t *testing.T) {
	f := newTemplateFixture(t, "CVE-2014-0196")
	cache := NewTemplateCache()
	t.Cleanup(cache.Close)
	hooks := obs.NewHooks(64, nil)
	cache.SetObserver(hooks)

	const n = 4
	var wg sync.WaitGroup
	systems := make([]*System, n)
	errs := make([]error, n)
	for i := 0; i < n; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			opts := f.Opts
			opts.Rand = nil // concurrent forks must not share the seeded reader
			opts.TemplateCache = cache
			systems[i], errs[i] = NewSystemCtx(context.Background(), opts)
		}(i)
	}
	wg.Wait()
	for i := 0; i < n; i++ {
		if errs[i] != nil {
			t.Fatalf("system %d: %v", i, errs[i])
		}
		t.Cleanup(systems[i].Close)
	}

	st := cache.Stats()
	if st.Misses != 1 {
		t.Errorf("misses = %d, want 1 (singleflight)", st.Misses)
	}
	if st.Hits != n-1 {
		t.Errorf("hits = %d, want %d", st.Hits, n-1)
	}
	if st.Forks != n {
		t.Errorf("forks = %d, want %d", st.Forks, n)
	}
	if st.Templates != 1 {
		t.Errorf("templates = %d, want 1", st.Templates)
	}
	snap := hooks.Metrics.Snapshot()
	got := map[string]int64{}
	for _, c := range snap.Counters {
		got[c.Name] = c.Value
	}
	if got[obs.CtrTemplateMisses] != 1 || got[obs.CtrTemplateHits] != int64(n-1) || got[obs.CtrTemplateForks] != int64(n) {
		t.Errorf("obs counters = %v", got)
	}

	// Every forked system patches independently.
	for i, sys := range systems[:2] {
		if _, err := sys.Apply(context.Background(), f.Entry.CVE); err != nil {
			t.Fatalf("apply on cached-fork %d: %v", i, err)
		}
	}
}

func TestTemplateCacheKeySeparatesConfigs(t *testing.T) {
	f := newTemplateFixture(t, "CVE-2014-0196")
	cache := NewTemplateCache()
	t.Cleanup(cache.Close)

	mk := func(mutate func(*Options)) *System {
		t.Helper()
		opts := f.Opts
		opts.TemplateCache = cache
		mutate(&opts)
		sys, err := NewSystemCtx(context.Background(), opts)
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(sys.Close)
		return sys
	}
	mk(func(o *Options) {})
	mk(func(o *Options) { o.DisableFtrace = true })
	mk(func(o *Options) { o.NumVCPUs = 1 })
	// Per-fork knobs must NOT split the key.
	mk(func(o *Options) { o.CheckActiveness = true })

	if st := cache.Stats(); st.Templates != 3 {
		t.Errorf("templates = %d, want 3 (ftrace and vCPUs split, activeness does not)", st.Templates)
	}
}

// TestTemplateCacheSeparatesReservedLayouts: the reservation is baked
// into a template at boot, so one cache serving the default layout and
// an enlarged one boots two templates, and each fork's mem_X has the
// size of its own layout. A payload that fits the paper's split leaves
// the options unchanged and shares the default template.
func TestTemplateCacheSeparatesReservedLayouts(t *testing.T) {
	f := newTemplateFixture(t, "CVE-2014-0196")
	cache := NewTemplateCache()
	t.Cleanup(cache.Close)

	const big = 10 << 20
	for _, tc := range []struct {
		payload int
		xSize   uint64
	}{
		{0, mem.MemXSize},
		{big, big + 2<<20},
		{4 << 20, mem.MemXSize},
	} {
		opts := WithPayloadReservation(f.Opts, tc.payload)
		opts.TemplateCache = cache
		sys, err := NewSystemCtx(context.Background(), opts)
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(sys.Close)
		if got := sys.Machine.Mem.Region(mem.RegionMemX).Size; got != tc.xSize {
			t.Errorf("payload %d: mem_X size %d, want %d", tc.payload, got, tc.xSize)
		}
	}
	if st := cache.Stats(); st.Misses != 2 || st.Hits != 1 {
		t.Errorf("misses, hits = %d, %d; want 2, 1 (one template per layout)", st.Misses, st.Hits)
	}
}

// TestTemplateCacheMatchesExtraFilesByContent checks that the cache
// matches ExtraFiles by content against its own copy: a distinct map
// with equal content hits, a caller that edits its map after
// provisioning has a new configuration and gets a miss and a template
// of its own, and the original content still hits the first template.
func TestTemplateCacheMatchesExtraFilesByContent(t *testing.T) {
	f := newTemplateFixture(t, "CVE-2014-0196")
	cache := NewTemplateCache()
	t.Cleanup(cache.Close)
	mk := func(files map[string]string) {
		t.Helper()
		opts := f.Opts
		opts.ExtraFiles = files
		opts.TemplateCache = cache
		sys, err := NewSystemCtx(context.Background(), opts)
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(sys.Close)
	}
	want := func(hits, misses int64, templates int) {
		t.Helper()
		if st := cache.Stats(); st.Hits != hits || st.Misses != misses || st.Templates != templates {
			t.Fatalf("stats = %+v, want %d hits, %d misses, %d templates", st, hits, misses, templates)
		}
	}

	files := maps.Clone(f.Opts.ExtraFiles)
	mk(files)
	mk(maps.Clone(files))
	want(1, 1, 1)

	files[f.Entry.File] = f.Entry.Fixed
	mk(files)
	want(1, 2, 2)

	mk(f.Opts.ExtraFiles)
	want(2, 2, 2)
}

func TestConcurrentForksFromOneTemplate(t *testing.T) {
	// N goroutines fork from one template and patch concurrently —
	// under -race this exercises the cross-store COW protocol end to
	// end (shared frames, per-fork SMRAM secrets, lazy server attach).
	f := newTemplateFixture(t, "CVE-2014-0196")
	tpl, err := NewTemplate(context.Background(), f.Opts)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(tpl.Close)
	snap := tpl.m.Mem.Snapshot()

	const n = 4
	var wg sync.WaitGroup
	for i := 0; i < n; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			opts := f.Opts
			opts.Rand = nil
			sys, err := tpl.Fork(context.Background(), opts)
			if err != nil {
				t.Errorf("fork %d: %v", i, err)
				return
			}
			defer sys.Close()
			if _, err := sys.Apply(context.Background(), f.Entry.CVE); err != nil {
				t.Errorf("fork %d apply: %v", i, err)
				return
			}
			if res, err := f.Entry.Exploit(sys.Kernel, 0); err != nil || res.Vulnerable {
				t.Errorf("fork %d still vulnerable: %v %v", i, res, err)
			}
		}(i)
	}
	wg.Wait()

	dirty, err := tpl.m.Mem.DiffFrames(snap)
	if err != nil {
		t.Fatal(err)
	}
	if len(dirty) != 0 {
		t.Errorf("concurrent forks dirtied template frames %v", dirty)
	}
}

func TestProvisioningCtxCancelled(t *testing.T) {
	f := newTemplateFixture(t, "CVE-2014-0196")
	ctx, cancel := context.WithCancel(context.Background())
	cancel()

	if _, err := NewSystemCtx(ctx, f.Opts); err == nil {
		t.Fatal("uncached provisioning ignored cancelled ctx")
	}
	cache := NewTemplateCache()
	t.Cleanup(cache.Close)
	opts := f.Opts
	opts.TemplateCache = cache
	if _, err := NewSystemCtx(ctx, opts); err == nil {
		t.Fatal("template provisioning ignored cancelled ctx")
	}
}

func TestTemplateClosedRejectsForks(t *testing.T) {
	f := newTemplateFixture(t, "CVE-2014-0196")
	tpl, err := NewTemplate(context.Background(), f.Opts)
	if err != nil {
		t.Fatal(err)
	}
	// A fork taken before Close keeps working after it.
	sys, err := tpl.Fork(context.Background(), f.Opts)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(sys.Close)
	tpl.Close()
	if _, err := tpl.Fork(context.Background(), f.Opts); err != ErrTemplateClosed {
		t.Fatalf("fork after Close: err = %v, want ErrTemplateClosed", err)
	}
	if _, err := sys.Apply(context.Background(), f.Entry.CVE); err != nil {
		t.Fatalf("pre-Close fork broken by template Close: %v", err)
	}
}

// BenchmarkProvision measures target provisioning two ways: cold, with
// no template cache (each System boots a single-use template — kernel
// build, machine bring-up — and forks it once), versus forked from a
// cached template (COW pages, per-fork secrets, SMRAM lock). Neither
// touches the server: attach and the bootstrap SMI wait for first
// contact. The forked/cold ns/op ratio is the template-cache payoff;
// systems_per_sec is the fleet provisioning rate either mode sustains.
func BenchmarkProvision(b *testing.B) {
	e, ok := cvebench.Get("CVE-2014-0196")
	if !ok {
		b.Fatal("unknown CVE CVE-2014-0196")
	}
	srv, err := patchserver.New(patchserver.WithTreeProvider(cvebench.TreeProviderFor(e)))
	if err != nil {
		b.Fatal(err)
	}
	defer srv.Close()
	srv.RegisterPatch(e.SourcePatch())
	opts := Options{ExtraFiles: map[string]string{e.File: e.Vuln}, ServerAddr: srv.Addr()}
	provision := func(b *testing.B, opts Options) {
		sys, err := NewSystemCtx(context.Background(), opts)
		if err != nil {
			b.Fatal(err)
		}
		sys.Close()
	}

	b.Run("cold", func(b *testing.B) {
		start := time.Now()
		for i := 0; i < b.N; i++ {
			provision(b, opts)
		}
		b.ReportMetric(float64(b.N)/time.Since(start).Seconds(), "systems_per_sec")
	})
	b.Run("forked", func(b *testing.B) {
		cached := opts
		cached.TemplateCache = NewTemplateCache()
		defer cached.TemplateCache.Close()
		// Boot the template outside the timed region: it is a one-time
		// per-configuration cost the fleet amortizes.
		provision(b, cached)
		b.ResetTimer()
		start := time.Now()
		for i := 0; i < b.N; i++ {
			provision(b, cached)
		}
		b.ReportMetric(float64(b.N)/time.Since(start).Seconds(), "systems_per_sec")
	})
}
