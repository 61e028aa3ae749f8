package patchserver

import (
	"bytes"
	"context"
	"encoding/binary"
	"io"
	"net"
	"runtime"
	"strings"
	"testing"
	"time"

	"kshot/internal/cvebench"
	"kshot/internal/faultinject"
	"kshot/internal/obs"
	"kshot/internal/timing"
)

// assertServerStillServes proves the server survived whatever the test
// just threw at it: a fresh well-formed client completes a full
// hello→patch exchange.
func assertServerStillServes(t *testing.T, srv *Server, cve string) {
	t.Helper()
	c, err := Dial(srv.Addr())
	if err != nil {
		t.Fatalf("server no longer accepting: %v", err)
	}
	defer c.Close()
	info := OSInfo{Version: "4.4", Ftrace: true, Inline: true}
	if _, err := c.Hello(info, goodMeasurement(info.Version)); err != nil {
		t.Fatalf("server no longer serving hellos: %v", err)
	}
	if _, err := c.FetchPatch(context.Background(), cve); err != nil {
		t.Fatalf("server no longer serving patches: %v", err)
	}
}

// TestGarbageBytesKillOnlyThatSession writes garbage to a raw
// connection: the server must drop that session (EOF back to us) and
// keep serving everyone else.
func TestGarbageBytesKillOnlyThatSession(t *testing.T) {
	srv, entries := newTestServer(t, "CVE-2014-0196")

	raw, err := net.Dial("tcp", srv.Addr())
	if err != nil {
		t.Fatal(err)
	}
	defer raw.Close()
	_ = raw.SetDeadline(time.Now().Add(5 * time.Second))
	if _, err := raw.Write([]byte("\xff\x03not a frame at all\x00\x00")); err != nil {
		t.Fatal(err)
	}
	// The server closes the broken session: our read drains to EOF.
	if _, err := io.Copy(io.Discard, raw); err != nil {
		t.Fatalf("draining killed session: %v", err)
	}

	assertServerStillServes(t, srv, entries[0].CVE)
}

// TestTruncatedStreamKillsOnlyThatSession sends one whole status frame
// and then half of a hello frame before hanging up: the first frame
// reaches handle(), the truncated one ends the session, and the server
// keeps serving.
func TestTruncatedStreamKillsOnlyThatSession(t *testing.T) {
	srv, entries := newTestServer(t, "CVE-2014-0196")

	status := appendRequest(nil, &request{Kind: kindStatus, Code: 2, Seq: 9})
	hello := appendRequest(nil, &request{Kind: kindHello, Info: OSInfo{Version: "4.4"}})
	raw, err := net.Dial("tcp", srv.Addr())
	if err != nil {
		t.Fatal(err)
	}
	defer raw.Close()
	_ = raw.SetDeadline(time.Now().Add(5 * time.Second))
	if _, err := raw.Write(append(status, hello[:len(hello)/2]...)); err != nil {
		t.Fatal(err)
	}
	_ = raw.(*net.TCPConn).CloseWrite()
	if _, err := io.Copy(io.Discard, raw); err != nil {
		t.Fatalf("draining truncated session: %v", err)
	}
	if sts := srv.Statuses(); len(sts) != 1 || sts[0].Seq != 9 {
		t.Errorf("statuses = %+v, want the one whole frame's report", sts)
	}

	assertServerStillServes(t, srv, entries[0].CVE)
}

// TestOversizedFrameRejected sends a length prefix one byte over the
// frame cap: the server ends that session without allocating a body
// for it, and keeps serving.
func TestOversizedFrameRejected(t *testing.T) {
	srv, entries := newTestServer(t, "CVE-2014-0196")

	raw, err := net.Dial("tcp", srv.Addr())
	if err != nil {
		t.Fatal(err)
	}
	defer raw.Close()
	_ = raw.SetDeadline(time.Now().Add(5 * time.Second))
	var hdr [frameHeader]byte
	binary.LittleEndian.PutUint32(hdr[:], maxFrame+1)

	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	if _, err := raw.Write(hdr[:]); err != nil {
		t.Fatal(err)
	}
	// The server closes the session on the header alone: no body is
	// ever sent, so a server waiting for one would hit our deadline.
	if _, err := io.Copy(io.Discard, raw); err != nil {
		t.Fatalf("oversized frame did not end the session: %v", err)
	}
	runtime.ReadMemStats(&after)
	if grew := after.TotalAlloc - before.TotalAlloc; grew >= maxFrame/2 {
		t.Errorf("server allocated %d bytes for a rejected frame", grew)
	}

	assertServerStillServes(t, srv, entries[0].CVE)
}

// TestPatchBeforeHelloKeepsSessionAlive sends a patch request before
// any hello: the server answers with an in-band error and the same
// session can then hello and fetch normally — protocol errors are not
// transport errors.
func TestPatchBeforeHelloKeepsSessionAlive(t *testing.T) {
	srv, entries := newTestServer(t, "CVE-2014-0196")
	c, err := Dial(srv.Addr())
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()

	if _, err := c.FetchPatch(context.Background(), entries[0].CVE); err == nil {
		t.Fatal("patch served before hello")
	}
	// Same connection, proper order: everything works.
	info := OSInfo{Version: "4.4", Ftrace: true, Inline: true}
	if _, err := c.Hello(info, goodMeasurement(info.Version)); err != nil {
		t.Fatalf("hello after rejected patch: %v", err)
	}
	if _, err := c.FetchPatch(context.Background(), entries[0].CVE); err != nil {
		t.Fatalf("fetch after rejected patch: %v", err)
	}
}

// TestMidResponseDisconnect has a client hang up right after sending a
// patch request, while the server is (or is about to be) writing the
// response. The request still reaches handle() — the server builds the
// patch — and only that session dies.
func TestMidResponseDisconnect(t *testing.T) {
	srv, entries := newTestServer(t, "CVE-2014-0196")

	burst := appendRequest(nil, &request{
		Kind:        kindHello,
		Info:        OSInfo{Version: "4.4", Ftrace: true, Inline: true},
		Measurement: goodMeasurement("4.4"),
	})
	burst = appendRequest(burst, &request{Kind: kindPatch, CVE: entries[0].CVE})
	raw, err := net.Dial("tcp", srv.Addr())
	if err != nil {
		t.Fatal(err)
	}
	if _, err := raw.Write(burst); err != nil {
		t.Fatal(err)
	}
	// Hang up without reading either response: the server's writes hit
	// a dead peer.
	raw.Close()

	deadline := time.Now().Add(5 * time.Second)
	for srv.Builds() == 0 {
		if time.Now().After(deadline) {
			t.Fatal("the pipelined patch request never reached handle()")
		}
		time.Sleep(time.Millisecond)
	}
	assertServerStillServes(t, srv, entries[0].CVE)
}

// TestCapacityRefusalSurfacesOnClient: a connection shed at the full
// gate reads the server's in-band refusal as its first response, so
// the client reports the capacity error rather than a broken stream.
func TestCapacityRefusalSurfacesOnClient(t *testing.T) {
	e, ok := cvebench.Get("CVE-2014-0196")
	if !ok {
		t.Fatal("unknown CVE")
	}
	srv, err := NewServer("127.0.0.1:0", cvebench.TreeProviderFor(e),
		WithMaxConns(1), WithAcceptWait(time.Millisecond))
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()
	info := OSInfo{Version: "4.4", Ftrace: true, Inline: true}
	holder, err := Dial(srv.Addr())
	if err != nil {
		t.Fatal(err)
	}
	defer holder.Close()
	if _, err := holder.Hello(info, goodMeasurement(info.Version)); err != nil {
		t.Fatal(err)
	}

	c, err := Dial(srv.Addr())
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	_, err = c.Hello(info, goodMeasurement(info.Version))
	if err == nil || !strings.Contains(err.Error(), "server at capacity") {
		t.Fatalf("hello past a full gate: err = %v, want the capacity refusal", err)
	}
}

// TestSilentClientDoesNotBlockClose is the regression test for the
// connection-pinning bug: a client that connects and then never sends
// a byte used to park its serve goroutine in Decode forever (no read
// deadline), so Server.Close hung on wg.Wait. Close must now return
// promptly — the watchdog failed before the fix.
func TestSilentClientDoesNotBlockClose(t *testing.T) {
	srv, _ := newTestServer(t, "CVE-2014-0196")
	raw, err := net.Dial("tcp", srv.Addr())
	if err != nil {
		t.Fatal(err)
	}
	defer raw.Close()
	// Give the accept loop a moment to hand the conn to a serve
	// goroutine, so Close genuinely has a parked reader to reap.
	deadline := time.Now().Add(5 * time.Second)
	for srv.Live() == 0 {
		if time.Now().After(deadline) {
			t.Fatal("connection never admitted")
		}
		time.Sleep(time.Millisecond)
	}

	done := make(chan struct{})
	go func() {
		srv.Close()
		close(done)
	}()
	select {
	case <-done:
	case <-time.After(10 * time.Second):
		t.Fatal("Close blocked on a silent client (serve goroutine pinned without a read deadline)")
	}
}

// TestIdleDeadlineReapsSilentClient proves the idle deadline alone —
// no Close involved — reclaims a silent connection's goroutine.
func TestIdleDeadlineReapsSilentClient(t *testing.T) {
	e, ok := cvebench.Get("CVE-2014-0196")
	if !ok {
		t.Fatal("unknown CVE")
	}
	srv, err := NewServer("127.0.0.1:0", cvebench.TreeProviderFor(e),
		WithIdleTimeout(50*time.Millisecond))
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()
	srv.RegisterPatch(e.SourcePatch())

	raw, err := net.Dial("tcp", srv.Addr())
	if err != nil {
		t.Fatal(err)
	}
	defer raw.Close()
	_ = raw.SetDeadline(time.Now().Add(5 * time.Second))
	// The server reaps us at the idle deadline: our read returns EOF
	// well before our own 5s guard.
	if _, err := io.Copy(io.Discard, raw); err != nil {
		t.Fatalf("expected clean EOF from idle reap, got %v", err)
	}
	deadline := time.Now().Add(5 * time.Second)
	for srv.Live() != 0 {
		if time.Now().After(deadline) {
			t.Fatalf("idle connection still live: %d", srv.Live())
		}
		time.Sleep(time.Millisecond)
	}
}

// TestDialRetrySucceedsAfterInjectedFailures drives the dial-retry
// path on fake time: the first two connect attempts fail via the
// injected DialError fault, the third succeeds, and the backoff waits
// are visible on the fake clock instead of the host's.
func TestDialRetrySucceedsAfterInjectedFailures(t *testing.T) {
	srv, entries := newTestServer(t, "CVE-2014-0196")

	fw := timing.NewFakeWall()
	fi := faultinject.New(faultinject.Exact(
		faultinject.Fault{Point: faultinject.DialError, Call: 0},
		faultinject.Fault{Point: faultinject.DialError, Call: 1},
	))
	hooks := obs.NewHooks(16, fw)

	c, err := Dial(srv.Addr(),
		WithDialRetries(3),
		WithRetryBackoff(10*time.Millisecond),
		WithClientWallClock(fw),
		WithClientFaultInjector(fi),
		WithClientObserver(hooks),
	)
	if err != nil {
		t.Fatalf("dial with retries: %v", err)
	}
	defer c.Close()
	// Backoff doubled across the two retries: 10ms + 20ms of fake time.
	if got := fw.Slept(); got != 30*time.Millisecond {
		t.Errorf("fake backoff slept %v, want 30ms", got)
	}
	if got := hooks.Metrics.Counter(obs.CtrDialRetries).Value(); got != 2 {
		t.Errorf("dial retries counter = %d, want 2", got)
	}

	info := OSInfo{Version: "4.4", Ftrace: true, Inline: true}
	if _, err := c.Hello(info, goodMeasurement(info.Version)); err != nil {
		t.Fatal(err)
	}
	if _, err := c.FetchPatch(context.Background(), entries[0].CVE); err != nil {
		t.Fatal(err)
	}
}

// TestDialRetriesExhausted: with fewer retries than injected failures
// the dial fails, and the error unwraps to the injected sentinel.
func TestDialRetriesExhausted(t *testing.T) {
	srv, _ := newTestServer(t, "CVE-2014-0196")
	faults := make([]faultinject.Fault, 5)
	for i := range faults {
		faults[i] = faultinject.Fault{Point: faultinject.DialError, Call: i}
	}
	fi := faultinject.New(faultinject.Exact(faults...))
	_, err := Dial(srv.Addr(),
		WithDialRetries(2),
		WithRetryBackoff(time.Nanosecond),
		WithClientFaultInjector(fi),
	)
	if err == nil {
		t.Fatal("dial succeeded past injected failures")
	}
}

// TestRequestRetryReconnects kills the client's connection out from
// under it mid-session; with request retries enabled the next fetch
// transparently redials, replays the attested hello, and succeeds with
// the same channel key.
func TestRequestRetryReconnects(t *testing.T) {
	srv, entries := newTestServer(t, "CVE-2014-0196")
	c, err := Dial(srv.Addr(),
		WithRequestRetries(2),
		WithRetryBackoff(time.Millisecond),
	)
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	info := OSInfo{Version: "4.4", Ftrace: true, Inline: true}
	attKey := bytes.Repeat([]byte{5}, 32)
	key1, err := c.HelloWithAttestation(info, goodMeasurement(info.Version), attKey)
	if err != nil {
		t.Fatal(err)
	}

	// Sever the transport behind the client's back.
	c.connMu.Lock()
	c.conn.Close()
	c.connMu.Unlock()

	blob, err := c.FetchPatch(context.Background(), entries[0].CVE)
	if err != nil {
		t.Fatalf("fetch after severed transport: %v", err)
	}
	if len(blob) == 0 {
		t.Fatal("empty blob after reconnect")
	}
	// The replayed attested hello converged on the same channel key, so
	// the blob still decrypts under key1.
	key2, err := c.HelloWithAttestation(info, goodMeasurement(info.Version), attKey)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(key1, key2) {
		t.Error("reconnect changed the attested channel key")
	}
}

// TestNoRequestRetryFailsFast: without request retries a severed
// transport surfaces the error to the caller (the default behavior
// every pre-existing test relies on).
func TestNoRequestRetryFailsFast(t *testing.T) {
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
	c.connMu.Lock()
	c.conn.Close()
	c.connMu.Unlock()
	if _, err := c.FetchPatch(context.Background(), entries[0].CVE); err == nil {
		t.Fatal("fetch succeeded on a severed transport without retries")
	}
}
