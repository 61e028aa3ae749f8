package patchserver

import (
	"bufio"
	"bytes"
	"encoding/binary"
	"io"
	"net"
	"sync/atomic"
	"testing"
	"time"
)

// helloFrame is a well-formed attested hello for the 4.4 test kernel.
func helloFrame() []byte {
	return appendRequest(nil, &request{
		Kind:        kindHello,
		Info:        OSInfo{Version: "4.4", Ftrace: true, Inline: true},
		Measurement: goodMeasurement("4.4"),
		AttKey:      testAttKey,
	})
}

// readResponse reads and decodes one response frame.
func readResponse(t *testing.T, rd *bufio.Reader) *response {
	t.Helper()
	body, err := readFrame(rd)
	if err != nil {
		t.Fatalf("read response: %v", err)
	}
	resp, err := decodeResponse(body)
	if err != nil {
		t.Fatalf("decode response: %v", err)
	}
	return resp
}

// TestFlushPredicateSplits checks the flush predicate at every split
// point of a two-frame burst: the next frame counts as buffered exactly
// when all of its bytes arrived, and a frame over the reader's buffer
// never does.
func TestFlushPredicateSplits(t *testing.T) {
	first := helloFrame()
	second := appendRequest(nil, &request{Kind: kindPatch, CVE: "CVE-2014-0196"})
	burst := append(append([]byte(nil), first...), second...)
	for k := 0; k <= len(burst); k++ {
		rd := bufio.NewReader(bytes.NewReader(burst[:k]))
		_, _ = rd.Peek(1) // fill the buffer with the k bytes that arrived
		if got, want := frameBuffered(rd), k >= len(first); got != want {
			t.Fatalf("split %d: first frame buffered = %t, want %t", k, got, want)
		}
		if k < len(first) {
			continue
		}
		if _, err := readFrame(rd); err != nil {
			t.Fatalf("split %d: %v", k, err)
		}
		if got, want := frameBuffered(rd), k == len(burst); got != want {
			t.Fatalf("split %d: second frame buffered = %t, want %t", k, got, want)
		}
	}

	big := make([]byte, frameHeader+8192)
	binary.LittleEndian.PutUint32(big, uint32(len(big)-frameHeader))
	rd := bufio.NewReader(bytes.NewReader(big))
	_, _ = rd.Peek(1)
	if frameBuffered(rd) {
		t.Error("a frame larger than the read buffer counts as buffered")
	}
}

// TestFlushBeforePartialFrame sends one whole hello and the first 3
// bytes of a patch request: the hello's response must arrive while the
// rest of the patch request is still unsent, since the server may not
// hold output across a read that can block.
func TestFlushBeforePartialFrame(t *testing.T) {
	srv, entries := newTestServer(t, "CVE-2014-0196")
	raw, err := net.Dial("tcp", srv.Addr())
	if err != nil {
		t.Fatal(err)
	}
	defer raw.Close()
	_ = raw.SetDeadline(time.Now().Add(5 * time.Second))
	rd := bufio.NewReader(raw)

	patchReq := appendRequest(nil, &request{Kind: kindPatch, CVE: entries[0].CVE})
	if _, err := raw.Write(append(helloFrame(), patchReq[:3]...)); err != nil {
		t.Fatal(err)
	}
	if resp := readResponse(t, rd); resp.Err != "" || len(resp.ServerKey) != 32 {
		t.Fatalf("hello response = %+v", resp)
	}
	if _, err := raw.Write(patchReq[3:]); err != nil {
		t.Fatal(err)
	}
	if resp := readResponse(t, rd); resp.Err != "" || len(resp.Blob) == 0 {
		t.Fatalf("patch response = %+v", resp)
	}
}

// TestBurstThenGarbageFlushesThenEOF sends a hello, a patch request and
// a malformed frame in one write: both well-formed requests are
// answered before the malformed frame ends the session.
func TestBurstThenGarbageFlushesThenEOF(t *testing.T) {
	srv, entries := newTestServer(t, "CVE-2014-0196")
	raw, err := net.Dial("tcp", srv.Addr())
	if err != nil {
		t.Fatal(err)
	}
	defer raw.Close()
	_ = raw.SetDeadline(time.Now().Add(5 * time.Second))
	rd := bufio.NewReader(raw)

	burst := helloFrame()
	burst = appendRequest(burst, &request{Kind: kindPatch, CVE: entries[0].CVE})
	burst = append(burst, 3, 0, 0, 0, 0, 0, 0) // a frame shorter than its fields
	if _, err := raw.Write(burst); err != nil {
		t.Fatal(err)
	}
	if resp := readResponse(t, rd); resp.Err != "" || len(resp.ServerKey) != 32 {
		t.Fatalf("hello response = %+v", resp)
	}
	if resp := readResponse(t, rd); resp.Err != "" || len(resp.Blob) == 0 {
		t.Fatalf("patch response = %+v", resp)
	}
	rest, err := io.ReadAll(rd)
	if err != nil || len(rest) != 0 {
		t.Fatalf("after the malformed frame: %d more bytes, err %v; want a clean EOF", len(rest), err)
	}
}

// writeCounter counts the server's writes on one end of a pipe.
type writeCounter struct {
	net.Conn
	writes atomic.Int32
}

func (w *writeCounter) Write(b []byte) (int, error) {
	w.writes.Add(1)
	return w.Conn.Write(b)
}

// TestBurstAnsweredWithOneWrite drives serveConn over an in-memory
// pipe: a hello and three patch requests sent as one burst are answered
// with a single write.
func TestBurstAnsweredWithOneWrite(t *testing.T) {
	srv, entries := newTestServer(t, "CVE-2014-0196")
	client, server := net.Pipe()
	defer client.Close()
	wc := &writeCounter{Conn: server}
	srv.wg.Add(1)
	srv.live.Add(1)
	go srv.serveConn(wc)

	burst := helloFrame()
	for range 3 {
		burst = appendRequest(burst, &request{Kind: kindPatch, CVE: entries[0].CVE})
	}
	_ = client.SetDeadline(time.Now().Add(5 * time.Second))
	go func() { _, _ = client.Write(burst) }()
	rd := bufio.NewReader(client)
	if resp := readResponse(t, rd); len(resp.ServerKey) != 32 {
		t.Fatalf("hello response = %+v", resp)
	}
	for i := range 3 {
		if resp := readResponse(t, rd); resp.Err != "" || len(resp.Blob) == 0 {
			t.Fatalf("patch response %d = %+v", i, resp)
		}
	}
	if n := wc.writes.Load(); n != 1 {
		t.Errorf("burst of 4 requests answered with %d writes, want 1", n)
	}
}
