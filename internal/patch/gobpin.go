package patch

import (
	"bytes"
	"encoding/gob"
)

// Encode is the plaintext encoding of a BinaryPatch: what the server
// encrypts and the preparation enclave decodes. It is one gob stream.
// It stays gob while the trust-boundary envelopes around it are
// hand-written binary, because the ciphertext length is the input to
// the virtual fetch time: another encoding would move every fetch
// metric and the golden report.
func Encode(bp *BinaryPatch) ([]byte, error) {
	var b bytes.Buffer
	if err := gob.NewEncoder(&b).Encode(bp); err != nil {
		return nil, err
	}
	return b.Bytes(), nil
}

// typePrefix is the run of type-definition messages every Encode
// stream starts with, and valueTypeID the type ID of the value message
// after it. A fresh gob encoder defines every type the value's type
// reaches, whatever the value holds, and init pins the IDs inside those
// definitions, so the prefix is one fixed byte string that Decode
// compares instead of interpreting.
var (
	typePrefix  []byte
	valueTypeID int64
)

// init pins encoding/gob's process-global type IDs for the patch wire
// types. Gob assigns IDs from a global counter in first-encode order,
// so the encoded byte length of a BinaryPatch would otherwise depend
// on which subsystem happened to gob-encode first in the process —
// enough to shift ciphertext sizes, and therefore the virtual transfer
// times derived from them, between otherwise identical runs. Encoding
// one canonical value at init fixes the assignment order for every
// importer, so a patch server and a kshotd in separate processes write
// and expect the same prefix, which init captures from the same stream.
func init() {
	b, err := Encode(&BinaryPatch{
		Funcs:    []FuncPatch{{Relocs: []Reloc{{}}}},
		Globals:  []GlobalEdit{{}},
		Warnings: []string{""},
	})
	if err != nil {
		panic("patch: gob type pin: " + err.Error())
	}
	if typePrefix, valueTypeID, err = splitTypePrefix(b); err != nil {
		panic("patch: gob type prefix: " + err.Error())
	}
}

// splitTypePrefix returns the messages of a gob stream ahead of its
// first value message, and that value's type ID. Each message is a
// length and a signed type ID; a type definition's ID is negative.
func splitTypePrefix(stream []byte) ([]byte, int64, error) {
	r := gobReader{buf: stream}
	for r.err == nil {
		rest := r.buf
		n := r.count()
		next := r.buf[n:]
		if id := r.int(); r.err == nil && id > 0 {
			return stream[:len(stream)-len(rest)], id, nil
		}
		r.buf = next
	}
	return nil, 0, r.err
}
