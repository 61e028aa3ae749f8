package patchserver

import (
	"bytes"
	"context"
	"encoding/binary"
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
	srv, err := NewServer("127.0.0.1:0", cvebench.TreeProviderFor(entries...))
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

func TestHelloAndFetch(t *testing.T) {
	srv, entries := newTestServer(t, "CVE-2014-0196")
	c, err := Dial(srv.Addr())
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()

	info := OSInfo{Version: "4.4", Ftrace: true, Inline: true}
	key, err := c.Hello(info, goodMeasurement("4.4"))
	if err != nil {
		t.Fatal(err)
	}
	blob, err := c.FetchPatch(context.Background(), entries[0].CVE)
	if err != nil {
		t.Fatal(err)
	}
	// The blob decrypts under the provisioned key into a BinaryPatch
	// for the right kernel.
	sess, err := kcrypto.NewSession(key, nil)
	if err != nil {
		t.Fatal(err)
	}
	plain, err := sess.Decrypt(blob)
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

func TestHelloRejectsBadMeasurement(t *testing.T) {
	srv, _ := newTestServer(t, "CVE-2014-0196")
	c, err := Dial(srv.Addr())
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	var bogus sgx.Measurement
	bogus[0] = 0xFF
	_, err = c.Hello(OSInfo{Version: "4.4", Ftrace: true, Inline: true}, bogus)
	if err == nil || !strings.Contains(err.Error(), "attestation") {
		t.Fatalf("bad measurement accepted: %v", err)
	}
	// Measurement for the wrong version is also an impostor.
	_, err = c.Hello(OSInfo{Version: "4.4", Ftrace: true, Inline: true}, goodMeasurement("3.14"))
	if err == nil {
		t.Fatal("cross-version measurement accepted")
	}
}

func TestHelloRejectsUnknownKernel(t *testing.T) {
	srv, _ := newTestServer(t, "CVE-2014-0196")
	c, err := Dial(srv.Addr())
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	if _, err := c.Hello(OSInfo{Version: "9.9"}, goodMeasurement("9.9")); err == nil {
		t.Fatal("unknown kernel accepted")
	}
}

func TestFetchBeforeHello(t *testing.T) {
	srv, _ := newTestServer(t, "CVE-2014-0196")
	c, err := Dial(srv.Addr())
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	if _, err := c.FetchPatch(context.Background(), "CVE-2014-0196"); err == nil {
		t.Fatal("patch served without hello")
	}
}

func TestFetchUnknownCVE(t *testing.T) {
	srv, _ := newTestServer(t, "CVE-2014-0196")
	c, err := Dial(srv.Addr())
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	if _, err := c.Hello(OSInfo{Version: "4.4", Ftrace: true, Inline: true}, goodMeasurement("4.4")); err != nil {
		t.Fatal(err)
	}
	if _, err := c.FetchPatch(context.Background(), "CVE-0000-0000"); err == nil {
		t.Fatal("unknown CVE served")
	}
}

func TestConfigurationMattersToBlob(t *testing.T) {
	// The same CVE fetched by targets with different build configs
	// must produce different patches (different addresses/payloads).
	srv, entries := newTestServer(t, "CVE-2016-7916")
	fetch := func(info OSInfo) *patch.BinaryPatch {
		c, err := Dial(srv.Addr())
		if err != nil {
			t.Fatal(err)
		}
		defer c.Close()
		key, err := c.Hello(info, goodMeasurement(info.Version))
		if err != nil {
			t.Fatal(err)
		}
		blob, err := c.FetchPatch(context.Background(), entries[0].CVE)
		if err != nil {
			t.Fatal(err)
		}
		sess, _ := kcrypto.NewSession(key, nil)
		plain, err := sess.Decrypt(blob)
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
	c, err := Dial(srv.Addr())
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	if err := c.ReportStatus(2, 7, []byte{1, 2, 3}); err != nil {
		t.Fatal(err)
	}
	sts := srv.Statuses()
	if len(sts) != 1 || sts[0].Code != 2 || sts[0].Seq != 7 || len(sts[0].Digest) != 3 {
		t.Errorf("statuses = %+v", sts)
	}
}

func TestConcurrentClients(t *testing.T) {
	srv, entries := newTestServer(t, "CVE-2014-0196")
	done := make(chan error, 4)
	for i := 0; i < 4; i++ {
		go func() {
			c, err := Dial(srv.Addr())
			if err != nil {
				done <- err
				return
			}
			defer c.Close()
			if _, err := c.Hello(OSInfo{Version: "4.4", Ftrace: true, Inline: true}, goodMeasurement("4.4")); err != nil {
				done <- err
				return
			}
			_, err = c.FetchPatch(context.Background(), entries[0].CVE)
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
	if _, err := Dial(srv.Addr()); err == nil {
		t.Error("dial succeeded after close")
	}
}

func TestAuthenticatedStatus(t *testing.T) {
	srv, _ := newTestServer(t, "CVE-2014-0196")
	c, err := Dial(srv.Addr())
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
	if err := c.ReportStatusMAC(2, 5, digest, mac[:]); err != nil {
		t.Fatal(err)
	}
	// A record with a wrong MAC does not.
	bad := make([]byte, 32)
	if err := c.ReportStatusMAC(2, 6, digest, bad); err != nil {
		t.Fatal(err)
	}
	// A record with no MAC at all does not.
	if err := c.ReportStatus(2, 7, digest); err != nil {
		t.Fatal(err)
	}
	sts := srv.Statuses()
	if len(sts) != 3 {
		t.Fatalf("statuses = %d", len(sts))
	}
	if !sts[0].Authentic || sts[1].Authentic || sts[2].Authentic {
		t.Errorf("authenticity = %v %v %v, want true false false",
			sts[0].Authentic, sts[1].Authentic, sts[2].Authentic)
	}
}

func TestFetchPatchesPipelined(t *testing.T) {
	srv, entries := newTestServer(t, "CVE-2014-0196", "CVE-2016-7916")
	c, err := Dial(srv.Addr())
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	if _, err := c.Hello(OSInfo{Version: "4.4", Ftrace: true, Inline: true}, goodMeasurement("4.4")); err != nil {
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
	c, err := Dial(srv.Addr())
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	if _, err := c.Hello(OSInfo{Version: "4.4", Ftrace: true, Inline: true}, goodMeasurement("4.4")); err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if _, err := c.FetchPatch(ctx, entries[0].CVE); err == nil {
		t.Fatal("canceled fetch succeeded")
	}
	// The abandoned exchange drains in the background; the connection
	// stays framed and a follow-up fetch works.
	if _, err := c.FetchPatch(context.Background(), entries[0].CVE); err != nil {
		t.Fatalf("fetch after cancellation: %v", err)
	}
}

func TestChannelKeyCacheForAttestedTargets(t *testing.T) {
	srv, _ := newTestServer(t, "CVE-2014-0196")
	attKey := bytes.Repeat([]byte{9}, 32)
	hello := func(key []byte) []byte {
		c, err := Dial(srv.Addr())
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
