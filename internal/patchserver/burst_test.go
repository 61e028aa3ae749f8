package patchserver

import (
	"bufio"
	"context"
	"errors"
	"net"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"kshot/internal/cvebench"
	"kshot/internal/faultinject"
	"kshot/internal/kcrypto"
	"kshot/internal/kernel"
	"kshot/internal/obs"
	"kshot/internal/patch"
)

// burstCVEs are three Table I CVEs with distinct patched files.
var burstCVEs = []string{"CVE-2014-0196", "CVE-2016-7916", "CVE-2016-2543"}

// sendBurst writes reqs to srv as one burst over a fresh connection
// and reads one response per request.
func sendBurst(t *testing.T, srv *Server, reqs ...*request) []*response {
	t.Helper()
	raw, err := net.Dial("tcp", srv.Addr())
	if err != nil {
		t.Fatal(err)
	}
	defer raw.Close()
	_ = raw.SetDeadline(time.Now().Add(10 * time.Second))
	var burst []byte
	for _, r := range reqs {
		burst = appendRequest(burst, r)
	}
	if _, err := raw.Write(burst); err != nil {
		t.Fatal(err)
	}
	rd := bufio.NewReader(raw)
	resps := make([]*response, len(reqs))
	for i := range resps {
		resps[i] = readResponse(t, rd)
	}
	return resps
}

// helloRequest is a well-formed attested hello for the 4.4 test kernel.
func helloRequest() *request {
	return &request{
		Kind:        kindHello,
		Info:        OSInfo{Version: "4.4", Ftrace: true, Inline: true},
		Measurement: goodMeasurement("4.4"),
		AttKey:      testAttKey,
	}
}

func patchRequest(cve string) *request { return &request{Kind: kindPatch, CVE: cve} }

// blobID decrypts a patch response under key and returns the patch ID.
func blobID(t *testing.T, key []byte, resp *response) string {
	t.Helper()
	if resp.Err != "" {
		t.Fatalf("patch response error %q", resp.Err)
	}
	sess, err := kcrypto.NewSession(key, nil)
	if err != nil {
		t.Fatal(err)
	}
	plain, err := sess.DecryptInPlace(resp.Blob)
	if err != nil {
		t.Fatal(err)
	}
	bp, err := patch.Decode(plain)
	if err != nil {
		t.Fatal(err)
	}
	return bp.ID
}

// TestBurstResponsesInRequestOrder: patch requests that build
// concurrently are answered in request order, around a status request
// and a failing request in the same burst.
func TestBurstResponsesInRequestOrder(t *testing.T) {
	srv, _ := newTestServer(t, burstCVEs...)
	resps := sendBurst(t, srv,
		helloRequest(),
		patchRequest(burstCVEs[0]),
		patchRequest(burstCVEs[1]),
		&request{Kind: kindStatus, Code: 1, Seq: 1},
		patchRequest("CVE-0000-0000"),
		patchRequest(burstCVEs[2]),
		patchRequest(burstCVEs[0]),
	)
	key := resps[0].ServerKey
	if resps[0].Err != "" || len(key) != 32 {
		t.Fatalf("hello response = %+v", resps[0])
	}
	for i, want := range map[int]string{1: burstCVEs[0], 2: burstCVEs[1], 5: burstCVEs[2], 6: burstCVEs[0]} {
		if got := blobID(t, key, resps[i]); got != want {
			t.Errorf("response %d carries %s, want %s", i, got, want)
		}
	}
	if r := resps[3]; r.Err != "" || r.Blob != nil {
		t.Errorf("status response = %+v, want an empty acknowledgement", r)
	}
	if r := resps[4]; !strings.Contains(r.Err, "no patch registered") {
		t.Errorf("unknown CVE response = %+v, want a refusal", r)
	}
}

// TestBurstHelloSplitsPatchRequests: in one burst, the patch request
// before the hello is refused, and the one after it is served under the
// session that hello opened.
func TestBurstHelloSplitsPatchRequests(t *testing.T) {
	srv, _ := newTestServer(t, burstCVEs[0])
	resps := sendBurst(t, srv, patchRequest(burstCVEs[0]), helloRequest(), patchRequest(burstCVEs[0]))
	if !strings.Contains(resps[0].Err, "hello required") {
		t.Errorf("patch before hello = %+v, want a hello-required refusal", resps[0])
	}
	if len(resps[1].ServerKey) != 32 {
		t.Fatalf("hello response = %+v", resps[1])
	}
	if got := blobID(t, resps[1].ServerKey, resps[2]); got != burstCVEs[0] {
		t.Errorf("patch after hello carries %s, want %s", got, burstCVEs[0])
	}
}

// TestBurstBuildsConcurrently: two cache misses in one burst build at
// the same time. The tree provider holds each build until both are in
// flight, and fails a build that waited 5 s alone.
func TestBurstBuildsConcurrently(t *testing.T) {
	entries := make([]*cvebench.Entry, 2)
	for i, id := range burstCVEs[:2] {
		e, ok := cvebench.Get(id)
		if !ok {
			t.Fatalf("unknown CVE %s", id)
		}
		entries[i] = e
	}
	trees := cvebench.TreeProviderFor(entries...)
	var (
		gated atomic.Bool
		mu    sync.Mutex
		n     int
		both  = make(chan struct{})
	)
	srv, err := New(WithTreeProvider(func(version string) (*kernel.SourceTree, error) {
		if gated.Load() {
			mu.Lock()
			if n++; n == 2 {
				close(both)
			}
			mu.Unlock()
			select {
			case <-both:
			case <-time.After(5 * time.Second):
				return nil, errors.New("build waited alone: builds did not overlap")
			}
		}
		return trees(version)
	}))
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(srv.Close)
	for _, e := range entries {
		srv.RegisterPatch(e.SourcePatch())
	}
	c, err := Dial(context.Background(), srv.Addr())
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	if _, err := c.HelloWithAttestation(OSInfo{Version: "4.4", Ftrace: true, Inline: true}, goodMeasurement("4.4"), testAttKey); err != nil {
		t.Fatal(err)
	}
	gated.Store(true) // every tree lookup from here on is a build's
	rs, err := c.FetchPatches(context.Background(), burstCVEs[:2])
	if err != nil {
		t.Fatal(err)
	}
	for _, r := range rs {
		if r.Err != nil {
			t.Errorf("%s: %v", r.CVE, r.Err)
		}
	}
	if b := srv.Builds(); b != 2 {
		t.Errorf("%d builds, want 2", b)
	}
}

// TestBurstBypassFaultSameCVE: the cache-bypass fault point is consulted
// in request order before a burst's builds start, so a fault scheduled
// for the second consultation always hits the burst's second CVE. Every
// source patch is broken behind the warm cache, so only the bypassed
// request rebuilds, and fails. Run under -race -count=20.
func TestBurstBypassFaultSameCVE(t *testing.T) {
	srv, _ := newTestServer(t, burstCVEs...)
	c, err := Dial(context.Background(), srv.Addr())
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	if _, err := c.HelloWithAttestation(OSInfo{Version: "4.4", Ftrace: true, Inline: true}, goodMeasurement("4.4"), testAttKey); err != nil {
		t.Fatal(err)
	}
	fetch := func() []FetchResult {
		t.Helper()
		rs, err := c.FetchPatches(context.Background(), burstCVEs)
		if err != nil {
			t.Fatal(err)
		}
		return rs
	}
	for _, r := range fetch() { // warm the cache
		if r.Err != nil {
			t.Fatalf("%s: %v", r.CVE, r.Err)
		}
	}
	srv.mu.Lock()
	for _, cve := range burstCVEs {
		srv.patches[cve] = kernel.SourcePatch{ID: cve, Files: map[string]string{"missing.c": ""}}
	}
	srv.mu.Unlock()
	set := faultinject.New(faultinject.Exact(faultinject.Fault{Point: faultinject.BuildCacheBypass, Call: 1}))
	srv.SetObserver(&obs.Hooks{Faults: set})

	for i, r := range fetch() {
		if bypassed := r.Err != nil; bypassed != (i == 1) {
			t.Errorf("%s (request %d): error %v; want only request 1 rebuilt", r.CVE, i, r.Err)
		}
	}
	if set.Fired() != 1 {
		t.Errorf("bypass fault fired %d times, want 1", set.Fired())
	}
}

// TestRecycledReaderAfterCutSession runs two sessions one after the
// other through serveConn. The first ends in the middle of a frame
// header, leaving its bytes in the session's reader; the second, which
// may get that reader back from the pool, must have its burst answered
// as if the first never happened.
func TestRecycledReaderAfterCutSession(t *testing.T) {
	srv, _ := newTestServer(t, burstCVEs[:2]...)
	session := func(send []byte, want int) []*response {
		client, server := net.Pipe()
		defer client.Close()
		done := make(chan struct{})
		srv.wg.Add(1)
		srv.live.Add(1)
		go func() { srv.serveConn(server); close(done) }()
		_ = client.SetDeadline(time.Now().Add(5 * time.Second))
		go func() { _, _ = client.Write(send) }()
		rd := bufio.NewReader(client)
		resps := make([]*response, want)
		for i := range resps {
			resps[i] = readResponse(t, rd)
		}
		client.Close()
		<-done
		return resps
	}

	cut := appendRequest(nil, helloRequest())
	cut = append(cut, appendRequest(nil, patchRequest(burstCVEs[0]))[:3]...)
	if r := session(cut, 1)[0]; len(r.ServerKey) != 32 {
		t.Fatalf("first session's hello response = %+v", r)
	}

	var burst []byte
	for _, r := range []*request{helloRequest(), patchRequest(burstCVEs[1]), patchRequest(burstCVEs[0])} {
		burst = appendRequest(burst, r)
	}
	resps := session(burst, 3)
	key := resps[0].ServerKey
	if resps[0].Err != "" || len(key) != 32 {
		t.Fatalf("second session's hello response = %+v", resps[0])
	}
	for i, want := range []string{burstCVEs[1], burstCVEs[0]} {
		if got := blobID(t, key, resps[i+1]); got != want {
			t.Errorf("second session's response %d carries %s, want %s", i+1, got, want)
		}
	}
}
