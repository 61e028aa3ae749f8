package patch

import (
	"bytes"
	"encoding/gob"
	"io"
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

// Decode parses a BinaryPatch produced by Encode.
func Decode(data []byte) (*BinaryPatch, error) {
	var bp BinaryPatch
	if err := gob.NewDecoder(bytes.NewReader(data)).Decode(&bp); err != nil {
		return nil, err
	}
	return &bp, nil
}

// init pins encoding/gob's process-global type IDs for the patch wire
// types. Gob assigns IDs from a global counter in first-encode order,
// so the encoded byte length of a BinaryPatch would otherwise depend
// on which subsystem happened to gob-encode first in the process —
// enough to shift ciphertext sizes, and therefore the virtual transfer
// times derived from them, between otherwise identical runs. Encoding
// one canonical value at init fixes the assignment order for every
// importer.
func init() {
	err := gob.NewEncoder(io.Discard).Encode(&BinaryPatch{
		Funcs:    []FuncPatch{{Relocs: []Reloc{{}}}},
		Globals:  []GlobalEdit{{}},
		Warnings: []string{""},
	})
	if err != nil {
		panic("patch: gob type pin: " + err.Error())
	}
}
