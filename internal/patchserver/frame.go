package patchserver

import (
	"bufio"
	"encoding/binary"
	"errors"
	"io"

	"kshot/internal/wire"
)

// Each request and response travels as one frame: a 4-byte
// little-endian body length, then the body. A body holds every field
// of its message in a fixed order (wire's codec), whatever the request
// kind, so the layout never depends on the content. A peer's frame
// that is over the cap, truncated or malformed ends that session only.

// maxFrame caps a frame body. It sits far above any artifact the
// server ships (patch blobs are kilobytes) and bounds what a peer's
// length prefix can make the reader allocate.
const maxFrame = 64 << 20

const frameHeader = 4

var errFrameTooLarge = errors.New("patchserver: frame exceeds the 64 MiB cap")

// readFrame reads one frame body. A length over maxFrame fails before
// anything is allocated for the body.
func readFrame(r *bufio.Reader) ([]byte, error) {
	hdr, err := r.Peek(frameHeader)
	if err != nil {
		return nil, err
	}
	n := binary.LittleEndian.Uint32(hdr)
	if n > maxFrame {
		return nil, errFrameTooLarge
	}
	_, _ = r.Discard(frameHeader) // cannot fail: Peek buffered the header
	body := make([]byte, n)
	if _, err := io.ReadFull(r, body); err != nil {
		return nil, err
	}
	return body, nil
}

// beginFrame reserves a frame header at the end of b; endFrame fills
// it in once the body is appended.
func beginFrame(b []byte) ([]byte, int) { return append(b, 0, 0, 0, 0), len(b) }

func endFrame(b []byte, start int) []byte {
	binary.LittleEndian.PutUint32(b[start:], uint32(len(b)-start-frameHeader))
	return b
}

func appendRequest(b []byte, r *request) []byte {
	b, start := beginFrame(b)
	b = wire.AppendString(b, r.Kind)
	b = wire.AppendString(b, r.Info.Version)
	b = wire.AppendBool(b, r.Info.Ftrace)
	b = wire.AppendBool(b, r.Info.Inline)
	b = append(b, r.Measurement[:]...)
	b = wire.AppendBytes(b, r.AttKey)
	b = wire.AppendString(b, r.CVE)
	b = wire.AppendUvarint(b, uint64(r.Code))
	b = wire.AppendUvarint(b, r.Seq)
	b = wire.AppendBytes(b, r.Digest)
	b = wire.AppendBytes(b, r.MAC)
	return endFrame(b, start)
}

func decodeRequest(body []byte) (*request, error) {
	d := wire.NewDecoder(body)
	r := &request{
		Kind: d.String(),
		Info: OSInfo{Version: d.String(), Ftrace: d.Bool(), Inline: d.Bool()},
	}
	d.Fixed(r.Measurement[:])
	r.AttKey = d.Bytes()
	r.CVE = d.String()
	r.Code = d.Uint32()
	r.Seq = d.Uvarint()
	r.Digest = d.Bytes()
	r.MAC = d.Bytes()
	if err := d.Finish(); err != nil {
		return nil, err
	}
	return r, nil
}

func appendResponse(b []byte, r *response) []byte {
	b, start := beginFrame(b)
	b = wire.AppendString(b, r.Err)
	b = wire.AppendBytes(b, r.ServerKey)
	b = wire.AppendBytes(b, r.Blob)
	return endFrame(b, start)
}

func decodeResponse(body []byte) (*response, error) {
	d := wire.NewDecoder(body)
	r := &response{Err: d.String(), ServerKey: d.Bytes(), Blob: d.Bytes()}
	if err := d.Finish(); err != nil {
		return nil, err
	}
	return r, nil
}
