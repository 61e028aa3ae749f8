package patchserver

import (
	"bufio"
	"bytes"
	"context"
	"encoding/binary"
	"errors"
	"net"
	"strings"
	"testing"

	"kshot/internal/cvebench"
	"kshot/internal/kcrypto"
	"kshot/internal/patch"
	"kshot/internal/sgx"
	"kshot/internal/sgxprep"
)

func newTestServer(t *testing.T, cves ...string) (*Server, []*cvebench.Entry) {
	t.Helper()
	entries := make([]*cvebench.Entry, len(cves))
	for i, id := range cves {
		e, ok := cvebench.Get(id)
		if !ok {
			t.Fatalf("unknown CVE %s", id)
		}
		entries[i] = e
	}
	srv, err := New(WithTreeProvider(cvebench.TreeProviderFor(entries...)))
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(srv.Close)
	for _, e := range entries {
		srv.RegisterPatch(e.SourcePatch())
	}
	return srv, entries
}

func goodMeasurement(version string) sgx.Measurement {
	return sgx.MeasureIdentity(sgxprep.Identity(version))
}

// testAttKey is the status-attestation key the tests' targets register
// at hello.
var testAttKey = bytes.Repeat([]byte{0xA7}, 32)

// TestHelloWithoutAttestationKeyRefused: a target registers its
// status-attestation key at hello, so a hello without one gets no
// channel key, and the session stays closed to patch requests.
func TestHelloWithoutAttestationKeyRefused(t *testing.T) {
	srv, entries := newTestServer(t, "CVE-2014-0196")
	c, err := Dial(context.Background(), srv.Addr())
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	info := OSInfo{Version: "4.4", Ftrace: true, Inline: true}
	if key, err := c.HelloWithAttestation(info, goodMeasurement("4.4"), nil); err == nil {
		t.Fatalf("unattested hello accepted, channel key %x", key)
	}
	if _, err := fetchOne(context.Background(), c, entries[0].CVE); err == nil {
		t.Fatal("patch served after a refused hello")
	}
	if _, err := c.HelloWithAttestation(info, goodMeasurement("4.4"), testAttKey); err != nil {
		t.Fatalf("attested hello after a refused one: %v", err)
	}
}

func TestHelloAndFetch(t *testing.T) {
	srv, entries := newTestServer(t, "CVE-2014-0196")
	c, err := Dial(context.Background(), srv.Addr())
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()

	info := OSInfo{Version: "4.4", Ftrace: true, Inline: true}
	key, err := c.HelloWithAttestation(info, goodMeasurement("4.4"), testAttKey)
	if err != nil {
		t.Fatal(err)
	}
	blob, err := fetchOne(context.Background(), c, entries[0].CVE)
	if err != nil {
		t.Fatal(err)
	}
	// The blob decrypts under the provisioned key into a BinaryPatch
	// for the right kernel.
	sess, err := kcrypto.NewSession(key, nil)
	if err != nil {
		t.Fatal(err)
	}
	plain, err := sess.DecryptInPlace(blob)
	if err != nil {
		t.Fatal(err)
	}
	bp, err := patch.Decode(plain)
	if err != nil {
		t.Fatal(err)
	}
	if bp.ID != entries[0].CVE || bp.KernelVersion != "4.4" || len(bp.Funcs) == 0 {
		t.Errorf("binary patch = %+v", bp)
	}
}

// TestRegisterBinaryPatch: a prebuilt patch is refused before a hello,
// like any patch request, and afterwards decrypts under the session
// key to exactly its encoding, without a kernel build. The last
// registration of an ID wins, prebuilt or source.
func TestRegisterBinaryPatch(t *testing.T) {
	srv, entries := newTestServer(t, "CVE-2014-0196")
	bp := &patch.BinaryPatch{
		ID:            entries[0].CVE,
		KernelVersion: "4.4",
		Funcs: []patch.FuncPatch{{
			Name: "bench_payload", Type: patch.Type1, New: true,
			Payload: []byte{0x90, 0x90, 0xC3},
		}},
	}
	if err := srv.RegisterBinaryPatch(bp); err != nil {
		t.Fatal(err)
	}
	if err := srv.RegisterBinaryPatch(&patch.BinaryPatch{}); err == nil {
		t.Error("binary patch without an ID accepted")
	}
	want := patch.Encode(bp)

	c, err := Dial(context.Background(), srv.Addr())
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	if _, err := fetchOne(context.Background(), c, bp.ID); err == nil {
		t.Fatal("prebuilt patch served before hello")
	}
	info := OSInfo{Version: "4.4", Ftrace: true, Inline: true}
	key, err := c.HelloWithAttestation(info, goodMeasurement(info.Version), testAttKey)
	if err != nil {
		t.Fatal(err)
	}
	sess, err := kcrypto.NewSession(key, nil)
	if err != nil {
		t.Fatal(err)
	}
	fetch := func() []byte {
		t.Helper()
		blob, err := fetchOne(context.Background(), c, bp.ID)
		if err != nil {
			t.Fatal(err)
		}
		plain, err := sess.DecryptInPlace(blob)
		if err != nil {
			t.Fatal(err)
		}
		return plain
	}
	if plain := fetch(); !bytes.Equal(plain, want) {
		t.Errorf("served plaintext differs from patch.Encode (%d vs %d bytes)", len(plain), len(want))
	}
	if n := srv.Builds(); n != 0 {
		t.Errorf("serving a prebuilt patch ran %d builds, want 0", n)
	}

	srv.RegisterPatch(entries[0].SourcePatch())
	if plain := fetch(); bytes.Equal(plain, want) {
		t.Error("re-registered source patch still served the prebuilt one")
	}
	if n := srv.Builds(); n != 1 {
		t.Errorf("builds after re-registering the source patch = %d, want 1", n)
	}
}

func TestHelloRejectsBadMeasurement(t *testing.T) {
	srv, _ := newTestServer(t, "CVE-2014-0196")
	c, err := Dial(context.Background(), srv.Addr())
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	var bogus sgx.Measurement
	bogus[0] = 0xFF
	_, err = c.HelloWithAttestation(OSInfo{Version: "4.4", Ftrace: true, Inline: true}, bogus, testAttKey)
	if err == nil || !strings.Contains(err.Error(), "attestation") {
		t.Fatalf("bad measurement accepted: %v", err)
	}
	// Measurement for the wrong version is also an impostor.
	_, err = c.HelloWithAttestation(OSInfo{Version: "4.4", Ftrace: true, Inline: true}, goodMeasurement("3.14"), testAttKey)
	if err == nil {
		t.Fatal("cross-version measurement accepted")
	}
}

func TestHelloRejectsUnknownKernel(t *testing.T) {
	srv, _ := newTestServer(t, "CVE-2014-0196")
	c, err := Dial(context.Background(), srv.Addr())
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	if _, err := c.HelloWithAttestation(OSInfo{Version: "9.9"}, goodMeasurement("9.9"), testAttKey); err == nil {
		t.Fatal("unknown kernel accepted")
	}
}

func TestFetchBeforeHello(t *testing.T) {
	srv, _ := newTestServer(t, "CVE-2014-0196")
	c, err := Dial(context.Background(), srv.Addr())
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	if _, err := fetchOne(context.Background(), c, "CVE-2014-0196"); err == nil {
		t.Fatal("patch served without hello")
	}
}

func TestFetchUnknownCVE(t *testing.T) {
	srv, _ := newTestServer(t, "CVE-2014-0196")
	c, err := Dial(context.Background(), srv.Addr())
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	if _, err := c.HelloWithAttestation(OSInfo{Version: "4.4", Ftrace: true, Inline: true}, goodMeasurement("4.4"), testAttKey); err != nil {
		t.Fatal(err)
	}
	if _, err := fetchOne(context.Background(), c, "CVE-0000-0000"); err == nil {
		t.Fatal("unknown CVE served")
	}
}

func TestConfigurationMattersToBlob(t *testing.T) {
	// The same CVE fetched by targets with different build configs
	// must produce different patches (different addresses/payloads).
	srv, entries := newTestServer(t, "CVE-2016-7916")
	fetch := func(info OSInfo) *patch.BinaryPatch {
		c, err := Dial(context.Background(), srv.Addr())
		if err != nil {
			t.Fatal(err)
		}
		defer c.Close()
		key, err := c.HelloWithAttestation(info, goodMeasurement(info.Version), testAttKey)
		if err != nil {
			t.Fatal(err)
		}
		blob, err := fetchOne(context.Background(), c, entries[0].CVE)
		if err != nil {
			t.Fatal(err)
		}
		sess, _ := kcrypto.NewSession(key, nil)
		plain, err := sess.DecryptInPlace(blob)
		if err != nil {
			t.Fatal(err)
		}
		bp, err := patch.Decode(plain)
		if err != nil {
			t.Fatal(err)
		}
		return bp
	}
	traced := fetch(OSInfo{Version: "4.4", Ftrace: true, Inline: true})
	plain := fetch(OSInfo{Version: "4.4", Ftrace: false, Inline: true})
	if traced.Funcs[0].Traced == plain.Funcs[0].Traced {
		t.Error("ftrace knob ignored by server build")
	}
	v314 := fetch(OSInfo{Version: "3.14", Ftrace: true, Inline: true})
	if v314.KernelVersion == traced.KernelVersion {
		t.Error("version knob ignored")
	}
}

func TestStatusReports(t *testing.T) {
	srv, _ := newTestServer(t, "CVE-2014-0196")
	c, err := Dial(context.Background(), srv.Addr())
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	if _, err := c.HelloWithAttestation(OSInfo{Version: "4.4", Ftrace: true, Inline: true}, goodMeasurement("4.4"), testAttKey); err != nil {
		t.Fatal(err)
	}
	if err := c.ReportStatusMAC(context.Background(), 2, 7, []byte{1, 2, 3}, nil); err != nil {
		t.Fatal(err)
	}
	sts := srv.Statuses()
	st := sts[string(testAttKey)]
	if len(sts) != 1 || st.Forgeries != 1 || st.Forged.Code != 2 || st.Forged.Seq != 7 || len(st.Forged.Digest) != 3 || st.Authentic.Seq != 0 {
		t.Errorf("statuses = %+v", sts)
	}
}

func TestConcurrentClients(t *testing.T) {
	srv, entries := newTestServer(t, "CVE-2014-0196")
	done := make(chan error, 4)
	for i := 0; i < 4; i++ {
		go func() {
			c, err := Dial(context.Background(), srv.Addr())
			if err != nil {
				done <- err
				return
			}
			defer c.Close()
			if _, err := c.HelloWithAttestation(OSInfo{Version: "4.4", Ftrace: true, Inline: true}, goodMeasurement("4.4"), testAttKey); err != nil {
				done <- err
				return
			}
			_, err = fetchOne(context.Background(), c, entries[0].CVE)
			done <- err
		}()
	}
	for i := 0; i < 4; i++ {
		if err := <-done; err != nil {
			t.Errorf("client %d: %v", i, err)
		}
	}
}

func TestServerCloseIdempotent(t *testing.T) {
	srv, _ := newTestServer(t, "CVE-2014-0196")
	srv.Close()
	srv.Close()
	if _, err := Dial(context.Background(), srv.Addr()); err == nil {
		t.Error("dial succeeded after close")
	}
}

func TestAuthenticatedStatus(t *testing.T) {
	srv, _ := newTestServer(t, "CVE-2014-0196")
	c, err := Dial(context.Background(), srv.Addr())
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	attKey := bytes.Repeat([]byte{7}, 32)
	if _, err := c.HelloWithAttestation(OSInfo{Version: "4.4", Ftrace: true, Inline: true},
		goodMeasurement("4.4"), attKey); err != nil {
		t.Fatal(err)
	}

	// A properly MACed record verifies.
	digest := bytes.Repeat([]byte{3}, 32)
	buf := make([]byte, 12+32)
	binary.LittleEndian.PutUint32(buf, 2)
	binary.LittleEndian.PutUint64(buf[4:], 5)
	copy(buf[12:], digest)
	mac := kcrypto.MAC(attKey, buf)
	if err := c.ReportStatusMAC(context.Background(), 2, 5, digest, mac[:]); err != nil {
		t.Fatal(err)
	}
	// A record with a wrong MAC does not.
	bad := make([]byte, 32)
	if err := c.ReportStatusMAC(context.Background(), 2, 6, digest, bad); err != nil {
		t.Fatal(err)
	}
	// A record with no MAC at all does not.
	if err := c.ReportStatusMAC(context.Background(), 2, 7, digest, nil); err != nil {
		t.Fatal(err)
	}
	sts := srv.Statuses()
	if len(sts) != 1 {
		t.Fatalf("statuses for %d keys, want 1", len(sts))
	}
	st := sts[string(attKey)]
	if st.Authentic.Seq != 5 || st.Forgeries != 2 || st.Forged.Seq != 7 {
		t.Errorf("record = authentic seq %d, %d forgeries (newest seq %d), want 5, 2 (7)",
			st.Authentic.Seq, st.Forgeries, st.Forged.Seq)
	}
}

// TestShortDigestStatusInauthentic: SMM always MACs a
// kcrypto.DigestSize digest, so a record carrying a shorter one is not
// SMM's and is recorded inauthentic, even when its MAC verifies over
// the bytes that were sent.
func TestShortDigestStatusInauthentic(t *testing.T) {
	srv, _ := newTestServer(t, "CVE-2014-0196")
	c, err := Dial(context.Background(), srv.Addr())
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	if _, err := c.HelloWithAttestation(OSInfo{Version: "4.4", Ftrace: true, Inline: true},
		goodMeasurement("4.4"), testAttKey); err != nil {
		t.Fatal(err)
	}
	digest := bytes.Repeat([]byte{3}, 16)
	buf := make([]byte, 12+len(digest))
	binary.LittleEndian.PutUint32(buf, 2)
	binary.LittleEndian.PutUint64(buf[4:], 5)
	copy(buf[12:], digest)
	mac := kcrypto.MAC(testAttKey, buf)
	if err := c.ReportStatusMAC(context.Background(), 2, 5, digest, mac[:]); err != nil {
		t.Fatal(err)
	}
	sts := srv.Statuses()
	if st := sts[string(testAttKey)]; len(sts) != 1 || st.Forgeries != 1 || st.Authentic.Seq != 0 {
		t.Errorf("statuses = %+v, want one inauthentic report", sts)
	}
}

// TestStatusBeforeHelloRefused: a connection that never completed an
// attested hello cannot report status, so it cannot grow the server's
// record either.
func TestStatusBeforeHelloRefused(t *testing.T) {
	srv, _ := newTestServer(t, "CVE-2014-0196")
	c, err := Dial(context.Background(), srv.Addr())
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	err = c.ReportStatusMAC(context.Background(), 2, 7, []byte{1, 2, 3}, nil)
	if err == nil || !strings.Contains(err.Error(), "hello required") {
		t.Fatalf("status before hello: %v, want a hello-required refusal", err)
	}
	if sts := srv.Statuses(); len(sts) != 0 {
		t.Errorf("statuses = %+v, want none", sts)
	}
	// The refusal is in-band: the session still accepts a hello.
	if _, err := c.HelloWithAttestation(OSInfo{Version: "4.4", Ftrace: true, Inline: true}, goodMeasurement("4.4"), testAttKey); err != nil {
		t.Fatalf("hello after refused status: %v", err)
	}
}

// TestReplayedStatusNotRecorded: a captured MAC'd status frame sent
// again, on the same connection or a new one for the same attestation
// key, is acknowledged but not recorded a second time; the next
// sequence number is, and a bad MAC is still recorded as inauthentic.
func TestReplayedStatusNotRecorded(t *testing.T) {
	srv, _ := newTestServer(t, "CVE-2014-0196")
	info := OSInfo{Version: "4.4", Ftrace: true, Inline: true}
	dial := func() *Client {
		c, err := Dial(context.Background(), srv.Addr())
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(func() { c.Close() })
		if _, err := c.HelloWithAttestation(info, goodMeasurement("4.4"), testAttKey); err != nil {
			t.Fatal(err)
		}
		return c
	}
	digest := bytes.Repeat([]byte{3}, 32)
	report := func(c *Client, seq uint64) {
		t.Helper()
		buf := make([]byte, 12+32)
		binary.LittleEndian.PutUint32(buf, 2)
		binary.LittleEndian.PutUint64(buf[4:], seq)
		copy(buf[12:], digest)
		mac := kcrypto.MAC(testAttKey, buf)
		if err := c.ReportStatusMAC(context.Background(), 2, seq, digest, mac[:]); err != nil {
			t.Fatal(err)
		}
	}
	record := func() TargetStatus {
		t.Helper()
		sts := srv.Statuses()
		if len(sts) != 1 {
			t.Fatalf("statuses for %d keys, want 1", len(sts))
		}
		return sts[string(testAttKey)]
	}
	c := dial()
	report(c, 5)
	first := record()
	report(c, 5)      // replayed on the same session
	report(dial(), 5) // replayed on a fresh session for the same key
	report(c, 4)      // an older record
	// A recorded replay or older report would move Seq or At.
	if st := record(); st.Authentic.Seq != 5 || !st.Authentic.At.Equal(first.Authentic.At) || st.Forgeries != 0 {
		t.Errorf("after replays: %+v, want the first authentic 5 unchanged", st)
	}
	report(c, 6)
	if err := c.ReportStatusMAC(context.Background(), 2, 6, digest, make([]byte, 32)); err != nil {
		t.Fatal(err)
	}
	if st := record(); st.Authentic.Seq != 6 || st.Forgeries != 1 || st.Forged.Seq != 6 {
		t.Errorf("record = %+v, want authentic 6 and one inauthentic 6", st)
	}
}

func TestFetchPatchesPipelined(t *testing.T) {
	srv, entries := newTestServer(t, "CVE-2014-0196", "CVE-2016-7916")
	c, err := Dial(context.Background(), srv.Addr())
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	if _, err := c.HelloWithAttestation(OSInfo{Version: "4.4", Ftrace: true, Inline: true}, goodMeasurement("4.4"), testAttKey); err != nil {
		t.Fatal(err)
	}
	rs, err := c.FetchPatches(context.Background(),
		[]string{entries[0].CVE, "CVE-0000-0000", entries[1].CVE})
	if err != nil {
		t.Fatal(err)
	}
	if len(rs) != 3 {
		t.Fatalf("results = %d", len(rs))
	}
	if rs[0].Err != nil || len(rs[0].Blob) == 0 {
		t.Errorf("member 0: %v", rs[0].Err)
	}
	// Per-CVE failure lands in the member, not the transport error.
	if rs[1].Err == nil {
		t.Error("unknown CVE served in pipelined fetch")
	}
	if rs[2].Err != nil || len(rs[2].Blob) == 0 {
		t.Errorf("member 2 after failed member: %v", rs[2].Err)
	}
}

func TestFetchCancellationKeepsClientUsable(t *testing.T) {
	srv, entries := newTestServer(t, "CVE-2014-0196")
	c, err := Dial(context.Background(), srv.Addr())
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	if _, err := c.HelloWithAttestation(OSInfo{Version: "4.4", Ftrace: true, Inline: true}, goodMeasurement("4.4"), testAttKey); err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if _, err := fetchOne(ctx, c, entries[0].CVE); err == nil {
		t.Fatal("canceled fetch succeeded")
	}
	// The abandoned exchange drains in the background; the connection
	// stays framed and a follow-up fetch works.
	if _, err := fetchOne(context.Background(), c, entries[0].CVE); err != nil {
		t.Fatalf("fetch after cancellation: %v", err)
	}
}

// TestClientReaderRecycledAfterCanceledExchange cancels a fetch while
// its exchange waits on a server that never answers, so the exchange
// goes on reading in the background with the connection's pooled
// reader. Close must not hand that reader back while the exchange can
// still read it: it closes the connection, waits for the exchange to
// release the client, and only then returns the reader. (CI repeats
// this test under -race, which flags a reader reset mid-read.) The
// client then holds no reader, and a later fetch fails cleanly.
func TestClientReaderRecycledAfterCanceledExchange(t *testing.T) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { ln.Close() })
	silent := make(chan net.Conn, 1)
	go func() {
		conn, err := ln.Accept()
		if err != nil {
			close(silent)
			return
		}
		// Wait for the request to arrive, then never answer.
		_, _ = bufio.NewReader(conn).Peek(frameHeader)
		silent <- conn
	}()
	c, err := Dial(context.Background(), ln.Addr().String())
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	errc := make(chan error, 1)
	go func() {
		_, err := c.FetchPatches(ctx, []string{"CVE-2014-0196"})
		errc <- err
	}()
	conn, ok := <-silent
	if !ok {
		t.Fatal("the server side never accepted")
	}
	defer conn.Close()
	cancel()
	if err := <-errc; !errors.Is(err, context.Canceled) {
		t.Fatalf("canceled fetch returned %v", err)
	}
	if c.mu.TryLock() {
		c.mu.Unlock()
		t.Fatal("the canceled exchange is not reading in the background")
	}

	if err := c.Close(); err != nil {
		t.Fatal(err)
	}
	if c.rd != nil {
		t.Error("Close kept the connection's reader")
	}
	if !c.mu.TryLock() {
		t.Fatal("Close returned while the exchange still held the client")
	}
	c.mu.Unlock()
	if _, err := fetchOne(context.Background(), c, "CVE-2014-0196"); !errors.Is(err, net.ErrClosed) {
		t.Errorf("fetch after Close returned %v, want net.ErrClosed", err)
	}
}

func TestChannelKeyCacheForAttestedTargets(t *testing.T) {
	srv, _ := newTestServer(t, "CVE-2014-0196")
	attKey := bytes.Repeat([]byte{9}, 32)
	hello := func(key []byte) []byte {
		c, err := Dial(context.Background(), srv.Addr())
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(func() { c.Close() })
		k, err := c.HelloWithAttestation(OSInfo{Version: "4.4", Ftrace: true, Inline: true},
			goodMeasurement("4.4"), key)
		if err != nil {
			t.Fatal(err)
		}
		return k
	}
	k1 := hello(attKey)
	k2 := hello(attKey)
	if !bytes.Equal(k1, k2) {
		t.Error("attested re-hello did not return the cached channel key (parallel fetch connections would not decrypt)")
	}
	k3 := hello(bytes.Repeat([]byte{8}, 32))
	if bytes.Equal(k1, k3) {
		t.Error("different attestation identity shares a channel key")
	}
}

// fetchOne fetches one CVE's blob, folding its per-CVE error into the
// error return.
func fetchOne(ctx context.Context, c *Client, cve string) ([]byte, error) {
	rs, err := c.FetchPatches(ctx, []string{cve})
	if err != nil {
		return nil, err
	}
	return rs[0].Blob, rs[0].Err
}
