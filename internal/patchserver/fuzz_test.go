package patchserver

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"io"
	"net"
	"os"
	"path/filepath"
	"testing"
	"time"

	"kshot/internal/cvebench"
)

// fuzzSeedBytes builds the structured wire-protocol seeds: well-formed
// requests (in and out of order), so the fuzzer starts from inputs
// that reach deep into handle() rather than dying in the frame reader.
// The first nine open with a hello that carries no attestation key,
// which the server now refuses; they stay as regression inputs for
// that refusal, and the attested seeds after them reach the patch path.
func fuzzSeedBytes() [][]byte {
	mk := func(req *request) []byte { return appendRequest(nil, req) }
	hello := mk(&request{
		Kind:        kindHello,
		Info:        OSInfo{Version: "4.4", Ftrace: true, Inline: true},
		Measurement: goodMeasurement("4.4"),
	})
	attested := mk(&request{
		Kind:        kindHello,
		Info:        OSInfo{Version: "4.4", Ftrace: true, Inline: true},
		Measurement: goodMeasurement("4.4"),
		AttKey:      testAttKey,
	})
	patchReq := mk(&request{Kind: kindPatch, CVE: "CVE-2014-0196"})
	status := mk(&request{Kind: kindStatus, Code: 1, Seq: 7, Digest: []byte{1, 2, 3}})
	burst := bytes.Join([][]byte{hello, patchReq, patchReq, patchReq}, nil) // one coalesced answer
	cutHeader := bytes.Join([][]byte{hello, patchReq[:2]}, nil)             // burst cut mid-header
	return [][]byte{
		hello,
		patchReq,                      // patch before hello: in-band error
		status,                        // status before hello: refused in-band
		append(hello, patchReq...),    // full happy path in one write
		hello[:len(hello)/2],          // truncated mid-frame
		[]byte("\xff\x03garbage\x00"), // length prefix over the cap
		{3, 0, 0, 0, 0, 0, 0},         // frame shorter than its fields
		burst,
		cutHeader,
		attested,
		append(attested, patchReq...),
		bytes.Join([][]byte{attested, patchReq, patchReq, status}, nil),
		bytes.Join([][]byte{status, attested, status}, nil), // refused before hello, recorded after
	}
}

// TestGenerateFuzzCorpus regenerates the committed seed corpus under
// testdata/fuzz/FuzzServerFrame from fuzzSeedBytes. Skipped unless
// GEN_FUZZ_CORPUS is set, so the corpus only changes deliberately
// (rerun with GEN_FUZZ_CORPUS=1 after editing the seeds).
func TestGenerateFuzzCorpus(t *testing.T) {
	if os.Getenv("GEN_FUZZ_CORPUS") == "" {
		t.Skip("set GEN_FUZZ_CORPUS=1 to regenerate the committed seed corpus")
	}
	dir := filepath.Join("testdata", "fuzz", "FuzzServerFrame")
	if err := os.MkdirAll(dir, 0o755); err != nil {
		t.Fatal(err)
	}
	for i, seed := range fuzzSeedBytes() {
		body := fmt.Sprintf("go test fuzz v1\n[]byte(%q)\n", seed)
		name := filepath.Join(dir, fmt.Sprintf("seed-%02d", i))
		if err := os.WriteFile(name, []byte(body), 0o644); err != nil {
			t.Fatal(err)
		}
	}
}

// FuzzServerFrame throws arbitrary bytes at a live server over real
// TCP: whatever arrives — garbage, truncated or oversized frames,
// out-of-order or duplicated requests — may only kill that one
// session. The server must neither crash nor wedge; the harness's
// final good-client exchange (registered before srv.Close) proves it
// survived the whole campaign.
func FuzzServerFrame(f *testing.F) {
	e, ok := cvebench.Get("CVE-2014-0196")
	if !ok {
		f.Fatal("unknown CVE")
	}
	srv, err := New(WithTreeProvider(cvebench.TreeProviderFor(e)),
		WithIdleTimeout(2*time.Second))
	if err != nil {
		f.Fatal(err)
	}
	f.Cleanup(srv.Close)
	srv.RegisterPatch(e.SourcePatch())
	f.Cleanup(func() {
		// Runs before srv.Close (cleanups are LIFO): the server still
		// serves a well-formed client after everything the fuzzer sent.
		c, err := Dial(context.Background(), srv.Addr())
		if err != nil {
			f.Errorf("server unreachable after fuzzing: %v", err)
			return
		}
		defer c.Close()
		info := OSInfo{Version: "4.4", Ftrace: true, Inline: true}
		if _, err := c.HelloWithAttestation(info, goodMeasurement(info.Version), testAttKey); err != nil {
			f.Errorf("server broken after fuzzing: %v", err)
		}
	})

	for _, seed := range fuzzSeedBytes() {
		f.Add(seed)
	}

	f.Fuzz(func(t *testing.T, data []byte) {
		conn, err := net.Dial("tcp", srv.Addr())
		if err != nil {
			t.Fatalf("dial: %v", err)
		}
		defer conn.Close()
		_ = conn.SetDeadline(time.Now().Add(10 * time.Second))
		if _, err := conn.Write(data); err != nil {
			return // server already rejected the session mid-write
		}
		_ = conn.(*net.TCPConn).CloseWrite()
		// Drain whatever the server answers until it closes the session.
		// A server that ends a session with input still unread resets
		// the connection, which is an acceptable close. A deadline hit is
		// not: the server wedged on input, the bug class this target hunts.
		if _, err := io.Copy(io.Discard, conn); errors.Is(err, os.ErrDeadlineExceeded) {
			t.Fatalf("server wedged on %d-byte input: %v", len(data), err)
		}
	})
}
