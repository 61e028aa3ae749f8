package patch

import (
	"reflect"
	"testing"
)

// pinnedPatch exercises every BinaryPatch field, including a negative
// addend and a nil-versus-empty Init.
func pinnedPatch() *BinaryPatch {
	return &BinaryPatch{
		ID:            "CVE-2016-7916",
		KernelVersion: "4.4",
		Funcs: []FuncPatch{
			{Name: "environ_read", Type: Type1, Traced: true, Payload: []byte{0x90, 0x90, 0xC3},
				Relocs: []Reloc{{Offset: 1, Kind: RelocBranch, Sym: "copy_to_user", Addend: -4}}},
			{Name: "helper", Type: Type3, New: true, Payload: []byte{0xC3}},
		},
		Globals:  []GlobalEdit{{Name: "limit", New: true, Size: 8, Init: []byte{1, 0, 0, 0, 0, 0, 0, 0}}},
		Warnings: []string{"size-changed shared variable"},
	}
}

// TestEncodeLengthPinned pins the plaintext encoding's length. The
// ciphertext length, and with it every virtual fetch time, follows
// from it, so a change here moves the golden report.
func TestEncodeLengthPinned(t *testing.T) {
	bp := pinnedPatch()
	b, err := Encode(bp)
	if err != nil {
		t.Fatal(err)
	}
	if len(b) != 556 {
		t.Errorf("encoded length %d, want %d", len(b), 556)
	}
	got, err := Decode(b)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(got, bp) {
		t.Errorf("round trip:\n got %+v\nwant %+v", got, bp)
	}
	if _, err := Decode(b[:len(b)-1]); err == nil {
		t.Error("truncated encoding decoded")
	}
}
