package patchserver

import (
	"bytes"
	"context"
	"fmt"
	"runtime"
	"sync"
	"testing"
	"time"

	"kshot/internal/cvebench"
	"kshot/internal/kcrypto"
)

// fleetConfigs are the three distinct build configurations the fleet
// conformance suite spreads its targets across.
var fleetConfigs = []OSInfo{
	{Version: "4.4", Ftrace: true, Inline: true},
	{Version: "4.4", Ftrace: false, Inline: true},
	{Version: "3.14", Ftrace: true, Inline: true},
}

// TestFleetConformance is the 64-target end-to-end conformance run over
// real TCP loopback: every target completes hello→patch→status for a
// wave of CVEs, targets sharing a build configuration receive
// byte-identical plaintext patches, the server performs exactly one
// double kernel build per distinct (configuration, CVE) pair no matter
// how many targets request it, and every status report arrives.
func TestFleetConformance(t *testing.T) {
	const nTargets = 64
	cves := []string{"CVE-2014-0196", "CVE-2016-7916"}
	srv, _ := newTestServer(t, cves...)

	type fetchKey struct {
		config int
		cve    string
	}
	var (
		mu     sync.Mutex
		plains = make(map[fetchKey][][]byte) // decrypted plaintexts per (config, CVE)
	)
	var wg sync.WaitGroup
	errs := make(chan error, nTargets)
	for i := 0; i < nTargets; i++ {
		wg.Add(1)
		go func(id int) {
			defer wg.Done()
			cfg := id % len(fleetConfigs)
			info := fleetConfigs[cfg]
			c, err := Dial(srv.Addr())
			if err != nil {
				errs <- fmt.Errorf("target %d dial: %w", id, err)
				return
			}
			defer c.Close()
			// Anonymous hello: every session gets its own channel key, so
			// the identical-plaintext assertion below also witnesses that
			// per-session encryption stayed per-client.
			key, err := c.Hello(info, goodMeasurement(info.Version))
			if err != nil {
				errs <- fmt.Errorf("target %d hello: %w", id, err)
				return
			}
			sess, err := kcrypto.NewSession(key, nil)
			if err != nil {
				errs <- err
				return
			}
			rs, err := c.FetchPatches(context.Background(), cves)
			if err != nil {
				errs <- fmt.Errorf("target %d fetch: %w", id, err)
				return
			}
			for _, r := range rs {
				if r.Err != nil {
					errs <- fmt.Errorf("target %d %s: %w", id, r.CVE, r.Err)
					return
				}
				plain, err := sess.Decrypt(r.Blob)
				if err != nil {
					errs <- fmt.Errorf("target %d %s decrypt: %w", id, r.CVE, err)
					return
				}
				mu.Lock()
				k := fetchKey{cfg, r.CVE}
				plains[k] = append(plains[k], plain)
				mu.Unlock()
			}
			if err := c.ReportStatus(1, uint64(id)+1, bytes.Repeat([]byte{byte(id)}, 8)); err != nil {
				errs <- fmt.Errorf("target %d status: %w", id, err)
			}
		}(i)
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Error(err)
	}
	if t.Failed() {
		t.FailNow()
	}

	// Byte-identical plaintext per (config, CVE) — and distinct across
	// configs for the same CVE (the server honored each configuration).
	for cfg := range fleetConfigs {
		for _, cve := range cves {
			group := plains[fetchKey{cfg, cve}]
			if want := nTargets / len(fleetConfigs); len(group) < want {
				t.Fatalf("config %d %s: %d plaintexts, want >= %d", cfg, cve, len(group), want)
			}
			for i := 1; i < len(group); i++ {
				if !bytes.Equal(group[0], group[i]) {
					t.Fatalf("config %d %s: plaintext %d differs from plaintext 0", cfg, cve, i)
				}
			}
		}
	}
	for _, cve := range cves {
		if bytes.Equal(plains[fetchKey{0, cve}][0], plains[fetchKey{1, cve}][0]) {
			t.Errorf("%s: ftrace=true and ftrace=false configs produced identical patches", cve)
		}
	}

	// Exactly one double kernel build per distinct (config, CVE) pair.
	if want := uint64(len(fleetConfigs) * len(cves)); srv.Builds() != want {
		t.Errorf("server builds = %d, want exactly %d (one per (config, CVE))", srv.Builds(), want)
	}
	if got := len(srv.Statuses()); got != nTargets {
		t.Errorf("status reports = %d, want %d", got, nTargets)
	}
}

// TestCacheSoakUnderEviction hammers the single-flight cache from
// concurrent sessions while the 2-entry capacity forces constant
// eviction, then closes the server mid-flight and asserts the drain
// leaks no goroutines. Run under -race this is the cache's
// thread-safety witness.
func TestCacheSoakUnderEviction(t *testing.T) {
	before := runtime.NumGoroutine()

	cves := []string{"CVE-2014-0196", "CVE-2016-7916"}
	srv, _ := newTestServer(t, cves...)
	// Capacity 2 with 8 distinct build keys in play: most fetches
	// rebuild, concurrent identical fetches coalesce, entries churn.
	srv.cache = newBuildCache(2)

	configs := []OSInfo{
		{Version: "4.4", Ftrace: true, Inline: true},
		{Version: "4.4", Ftrace: false, Inline: true},
		{Version: "4.4", Ftrace: true, Inline: false},
		{Version: "4.4", Ftrace: false, Inline: false},
	}
	const workers = 12
	stop := make(chan struct{})
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			c, err := Dial(srv.Addr())
			if err != nil {
				return // server may already be closing
			}
			defer c.Close()
			info := configs[w%len(configs)]
			if _, err := c.Hello(info, goodMeasurement(info.Version)); err != nil {
				return
			}
			for i := 0; ; i++ {
				select {
				case <-stop:
					return
				default:
				}
				// Errors are expected once the mid-flight Close lands; the
				// soak only cares that nothing races or leaks.
				_, _ = c.FetchPatch(context.Background(), cves[i%len(cves)])
			}
		}(w)
	}

	time.Sleep(100 * time.Millisecond) // let the fleet reach steady state
	srv.Close()                        // mid-flight: workers are inside fetches
	close(stop)
	wg.Wait()

	if n := srv.CachedArtifacts(); n > 2 {
		t.Errorf("cache retained %d entries, capacity 2", n)
	}

	// All server and client goroutines must be gone. Poll: goroutine
	// teardown is asynchronous after Close returns.
	deadline := time.Now().Add(5 * time.Second)
	for {
		runtime.GC()
		if n := runtime.NumGoroutine(); n <= before+2 { // slack for runtime helpers
			break
		}
		if time.Now().After(deadline) {
			buf := make([]byte, 1<<16)
			t.Fatalf("goroutine leak: before=%d after=%d\n%s",
				before, runtime.NumGoroutine(), buf[:runtime.Stack(buf, true)])
		}
		time.Sleep(10 * time.Millisecond)
	}
}

// TestDrainFinishesInFlight verifies graceful drain: after Drain is
// initiated no new connection is accepted, but a response already in
// flight completes.
func TestDrainFinishesInFlight(t *testing.T) {
	srv, entries := newTestServer(t, "CVE-2014-0196")
	c, err := Dial(srv.Addr())
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	info := OSInfo{Version: "4.4", Ftrace: true, Inline: true}
	if _, err := c.Hello(info, goodMeasurement(info.Version)); err != nil {
		t.Fatal(err)
	}

	// Start a fetch, then drain concurrently: the fetch must still be
	// answered (drain finishes in-flight work, it does not abort it).
	fetchDone := make(chan error, 1)
	go func() {
		_, err := c.FetchPatch(context.Background(), entries[0].CVE)
		fetchDone <- err
	}()

	drainCtx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	drainDone := make(chan error, 1)
	go func() { drainDone <- srv.Drain(drainCtx) }()

	if err := <-fetchDone; err != nil {
		t.Fatalf("in-flight fetch aborted by drain: %v", err)
	}
	// An established session keeps being served while the drain waits.
	if _, err := c.FetchPatch(context.Background(), entries[0].CVE); err != nil {
		t.Fatalf("established session dropped during drain: %v", err)
	}
	// Draining stopped the listener: new connections are refused.
	if _, err := Dial(srv.Addr()); err == nil {
		t.Error("dial succeeded during drain")
	}
	// Once the last client leaves, the drain completes.
	c.Close()
	if err := <-drainDone; err != nil {
		t.Fatalf("drain: %v", err)
	}
	srv.Close()
}

// TestMaxConnsBackpressureAndRefusal exercises the connection gate in
// both modes: with no accept wait the gate applies pure backpressure
// (the connection is served once a slot frees), and with an accept
// wait the connection is actively refused with a capacity error.
func TestMaxConnsBackpressureAndRefusal(t *testing.T) {
	e, ok := cvebench.Get("CVE-2014-0196")
	if !ok {
		t.Fatal("unknown CVE")
	}
	gated, err := New(WithTreeProvider(cvebench.TreeProviderFor(e)),
		WithMaxConns(1), WithAcceptWait(30*time.Millisecond))
	if err != nil {
		t.Fatal(err)
	}
	defer gated.Close()
	gated.RegisterPatch(e.SourcePatch())

	info := OSInfo{Version: "4.4", Ftrace: true, Inline: true}
	c1, err := Dial(gated.Addr())
	if err != nil {
		t.Fatal(err)
	}
	defer c1.Close()
	if _, err := c1.Hello(info, goodMeasurement(info.Version)); err != nil {
		t.Fatal(err)
	}

	// The single slot is held by c1: a second client is refused after
	// the accept wait, with the capacity error on its first response.
	c2, err := Dial(gated.Addr())
	if err != nil {
		t.Fatal(err)
	}
	defer c2.Close()
	_, err = c2.Hello(info, goodMeasurement(info.Version))
	if err == nil {
		t.Fatal("second client served past a full gate")
	}
	if gated.Refused() != 1 {
		t.Errorf("refused = %d, want 1", gated.Refused())
	}

	// Once c1 leaves, the slot frees and a new client is served.
	c1.Close()
	var c3 *Client
	deadline := time.Now().Add(5 * time.Second)
	for {
		c3, err = Dial(gated.Addr())
		if err == nil {
			if _, err = c3.Hello(info, goodMeasurement(info.Version)); err == nil {
				break
			}
			c3.Close()
		}
		if time.Now().After(deadline) {
			t.Fatalf("gate never freed: %v", err)
		}
		time.Sleep(5 * time.Millisecond)
	}
	defer c3.Close()
	if _, err := c3.FetchPatch(context.Background(), e.CVE); err != nil {
		t.Fatalf("fetch after slot freed: %v", err)
	}
}
