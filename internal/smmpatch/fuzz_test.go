package smmpatch

import (
	"bytes"
	"fmt"
	"reflect"
	"testing"
)

// windowReader serves parseBatchDir reads from a flat byte slice
// standing in for the mem_W window, and fails the test on any read
// outside [base, base+len(win)) — parseBatchDir bounds-checks every
// length before reading, so an out-of-window read is a parser bug,
// not an input problem.
func windowReader(t *testing.T, base uint64, win []byte) func(addr uint64, dst []byte) error {
	return func(addr uint64, dst []byte) error {
		if addr < base || addr-base+uint64(len(dst)) > uint64(len(win)) {
			t.Fatalf("parser read [%#x,+%d) outside the %d-byte window", addr, len(dst), len(win))
			return fmt.Errorf("unreachable")
		}
		copy(dst, win[addr-base:])
		return nil
	}
}

// FuzzKSBTParse hammers the KSBT staging-directory parser with
// arbitrary bytes. The directory comes from the untrusted helper via
// write-only memory, so the parser is a trust boundary:
//
//   - it must never panic or read outside the staging window;
//   - a rejection is fine (ErrBadBatch) — that is the job;
//   - an accepted directory must be canonical: re-encoding the parsed
//     members reproduces exactly the consumed prefix of the input,
//     and re-parsing that encoding yields identical members.
func FuzzKSBTParse(f *testing.F) {
	f.Add([]byte("KSBT"))                 // magic only, no count
	f.Add([]byte("KSBT\xff\xff\xff\xff")) // absurd member count
	f.Add([]byte("KSBU\x01\x00\x00\x00")) // wrong magic
	f.Add(appendBatchDir(nil, []BatchMember{
		{EnclavePub: []byte("pub-0"), Ciphertext: []byte("sealed-package-0")},
	}))
	two := appendBatchDir(nil, []BatchMember{
		{EnclavePub: []byte("alpha-pub"), Ciphertext: []byte("sealed-1")},
		{EnclavePub: []byte("beta-pub"), Ciphertext: []byte("sealed-2")},
	})
	f.Add(two)
	f.Add(two[:len(two)-3]) // truncated final blob
	f.Add(append(append([]byte{}, two...), "trailing garbage"...))

	f.Fuzz(func(t *testing.T, data []byte) {
		const base = 0x100_0000
		members, err := parseBatchDir(windowReader(t, base, data), base, base+uint64(len(data)))
		if err != nil {
			return
		}
		if len(members) == 0 || len(members) > MaxBatchMembers {
			t.Fatalf("accepted directory with %d members", len(members))
		}
		consumed := uint64(8)
		for i, m := range members {
			if len(m.EnclavePub) == 0 || len(m.Ciphertext) == 0 {
				t.Fatalf("member %d accepted with empty blob", i)
			}
			consumed += 8 + uint64(len(m.EnclavePub)) + uint64(len(m.Ciphertext))
		}
		re := appendBatchDir(nil, members)
		if uint64(len(re)) != consumed || !bytes.Equal(re, data[:consumed]) {
			t.Fatalf("re-encode is not the consumed prefix:\n in: %x\nout: %x", data[:consumed], re)
		}
		again, err := parseBatchDir(windowReader(t, base, re), base, base+uint64(len(re)))
		if err != nil {
			t.Fatalf("re-parse of canonical encoding failed: %v", err)
		}
		if !reflect.DeepEqual(members, again) {
			t.Fatalf("re-parse disagrees:\n first: %+v\nsecond: %+v", members, again)
		}
	})
}
