package patch

import (
	"bytes"
	"encoding/binary"
	"encoding/gob"
	"encoding/hex"
	"os"
	"reflect"
	"strings"
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

// gobDecode is the oracle Decode is held to: encoding/gob's decoder.
func gobDecode(data []byte) (*BinaryPatch, error) {
	var bp BinaryPatch
	if err := gob.NewDecoder(bytes.NewReader(data)).Decode(&bp); err != nil {
		return nil, err
	}
	return &bp, nil
}

// TestEncodePrefixPinned pins the type-definition prefix Decode
// requires, so that a Go release changing gob's type encoding, or a gob
// use that shifts the pinned type IDs, fails here rather than in the
// enclave. The committed file holds the prefix in hex.
func TestEncodePrefixPinned(t *testing.T) {
	want, err := os.ReadFile("testdata/binarypatch_gob_prefix.hex")
	if err != nil {
		t.Fatal(err)
	}
	if got := hex.EncodeToString(typePrefix); got != strings.Join(strings.Fields(string(want)), "") {
		t.Errorf("gob type-definition prefix changed; it is now\n%s", got)
	}
	b, err := Encode(pinnedPatch())
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.HasPrefix(b, typePrefix) {
		t.Error("Encode output does not start with the captured prefix")
	}
}

// appendGobUint appends x in gob's unsigned integer encoding.
func appendGobUint(b []byte, x uint64) []byte {
	if x < 0x80 {
		return append(b, byte(x))
	}
	var v [8]byte
	binary.BigEndian.PutUint64(v[:], x)
	i := 0
	for v[i] == 0 {
		i++
	}
	return append(append(b, byte(256-(8-i))), v[i:]...)
}

// valueMessage frames body as an Encode stream whose value message
// carries type ID id (positive).
func valueMessage(id int64, body ...byte) []byte {
	msg := appendGobUint(nil, uint64(id)<<1)
	msg = append(msg, body...)
	return append(appendGobUint(bytes.Clone(typePrefix), uint64(len(msg))), msg...)
}

// TestDecodeRejects gives each fail-closed rule the smallest stream
// that breaks it. The empty value message, which decodes, shows that
// the framing helper is sound.
func TestDecodeRejects(t *testing.T) {
	if bp, err := Decode(valueMessage(valueTypeID, 0)); err != nil || !reflect.DeepEqual(bp, &BinaryPatch{}) {
		t.Fatalf("empty value message: %+v, %v", bp, err)
	}
	good, err := Encode(pinnedPatch())
	if err != nil {
		t.Fatal(err)
	}
	flipped := bytes.Clone(good)
	flipped[len(typePrefix)/2] ^= 1
	id := valueTypeID
	for _, c := range []struct {
		name string
		data []byte
	}{
		{"empty input", nil},
		{"prefix only", typePrefix},
		{"prefix byte flipped", flipped},
		{"other type ID", valueMessage(id+1, 0)},
		{"message longer than input", good[:len(good)-1]},
		{"message shorter than input", append(bytes.Clone(good), 0)},
		{"non-minimal uint", valueMessage(id, 0xFF, 0x01, 0x00, 0x00)},
		{"uint with a leading zero byte", valueMessage(id, 0x01, 0xFE, 0x00, 0x80)},
		{"uint over 8 bytes", valueMessage(id, 0xF7, 1, 2, 3, 4, 5, 6, 7, 8, 9)},
		{"field delta past the last field", valueMessage(id, 0x06, 0x00)},
		{"field after the last field", valueMessage(id, 0x05, 0x01, 0x00, 0x01, 0x00)},
		{"bool 2", valueMessage(id, 0x03, 0x01, 0x03, 0x02, 0x00, 0x00)},
		{"string longer than input", valueMessage(id, 0x01, 0x7F, 'a', 0x00)},
		{"count larger than input", valueMessage(id, 0x03, 0x7F, 0x00)},
		{"reloc kind over 255", valueMessage(id, 0x03, 0x01, 0x06, 0x01, 0x02, 0xFE, 0x01, 0x00, 0x00, 0x00, 0x00)},
		{"missing terminator", valueMessage(id, 0x01, 0x00)},
		{"bytes after the terminator", valueMessage(id, 0x00, 0x00)},
	} {
		if bp, err := Decode(c.data); err == nil {
			t.Errorf("%s: %x decoded as %+v", c.name, c.data, bp)
		}
	}
}

// TestDecodeAllocs bounds Decode's allocations: the patch itself plus
// one per non-empty string and slice, 15 for pinnedPatch. Gob's decoder
// takes over 300, so this also keeps it off the path.
func TestDecodeAllocs(t *testing.T) {
	b, err := Encode(pinnedPatch())
	if err != nil {
		t.Fatal(err)
	}
	allocs := testing.AllocsPerRun(100, func() {
		if _, err := Decode(b); err != nil {
			t.Fatal(err)
		}
	})
	if allocs > 15 {
		t.Errorf("Decode allocated %.0f times per call, want at most 15", allocs)
	}
}

// BenchmarkPatchDecode compares Decode with gob's decoder on one stream.
func BenchmarkPatchDecode(b *testing.B) {
	data, err := Encode(pinnedPatch())
	if err != nil {
		b.Fatal(err)
	}
	for _, bc := range []struct {
		name   string
		decode func([]byte) (*BinaryPatch, error)
	}{{"handwritten", Decode}, {"gob", gobDecode}} {
		b.Run(bc.name, func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				if _, err := bc.decode(data); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// fuzzPatch builds a BinaryPatch from fuzz input. Successive bytes pick
// counts, flags, integer widths and string lengths, so inputs reach
// empty and nil slices and negative and multi-byte integers.
func fuzzPatch(data []byte) *BinaryPatch {
	next := func() byte {
		if len(data) == 0 {
			return 0
		}
		b := data[0]
		data = data[1:]
		return b
	}
	take := func() []byte {
		n := min(int(next()%16), len(data))
		b := data[:n:n]
		data = data[n:]
		return b
	}
	num := func() uint64 {
		var x uint64
		for i := next() % 9; i > 0; i-- {
			x = x<<8 | uint64(next())
		}
		return x
	}
	bp := &BinaryPatch{ID: string(take()), KernelVersion: string(take())}
	bp.Funcs = make([]FuncPatch, next()%4)
	for i := range bp.Funcs {
		f := &bp.Funcs[i]
		f.Name = string(take())
		f.Type = Type(num())
		f.New = next()&1 == 1
		f.Traced = next()&1 == 1
		f.Payload = take()
		f.Relocs = make([]Reloc, next()%3)
		for j := range f.Relocs {
			f.Relocs[j] = Reloc{Offset: int(num()), Kind: RelocKind(next()), Sym: string(take()), Addend: int64(num())}
		}
	}
	bp.Globals = make([]GlobalEdit, next()%3)
	for i := range bp.Globals {
		bp.Globals[i] = GlobalEdit{Name: string(take()), New: next()&1 == 1, Size: num(), Init: take()}
	}
	bp.Warnings = make([]string, next()%3)
	for i := range bp.Warnings {
		bp.Warnings[i] = string(take())
	}
	return bp
}

// gobNormal rewrites bp the way a gob round trip returns it: every
// empty slice comes back nil.
func gobNormal(bp *BinaryPatch) *BinaryPatch {
	if len(bp.Funcs) == 0 {
		bp.Funcs = nil
	}
	for i := range bp.Funcs {
		f := &bp.Funcs[i]
		if len(f.Payload) == 0 {
			f.Payload = nil
		}
		if len(f.Relocs) == 0 {
			f.Relocs = nil
		}
	}
	if len(bp.Globals) == 0 {
		bp.Globals = nil
	}
	for i := range bp.Globals {
		if len(bp.Globals[i].Init) == 0 {
			bp.Globals[i].Init = nil
		}
	}
	if len(bp.Warnings) == 0 {
		bp.Warnings = nil
	}
	return bp
}

// requireGobAgrees fails unless gob's decoder accepts in and returns
// what Decode returned.
func requireGobAgrees(t *testing.T, in []byte, got *BinaryPatch) {
	t.Helper()
	want, err := gobDecode(in)
	if err != nil {
		t.Fatalf("Decode accepted %x, gob refused it: %v", in, err)
	}
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("%x: Decode returned %+v, gob %+v", in, got, want)
	}
}

// FuzzPatchDecode holds Decode to gob's decoder. For any input, alone
// and behind the type prefix, Decode must not panic, and a stream it
// accepts must be one gob accepts, decoded deeply equal. The input also
// builds a BinaryPatch whose encoding must decode back to it, with
// empty slices read back as nil, as gob returns them. The committed
// corpus seeds it with pinnedPatch's encoding, its value message alone
// and a few hand-built streams.
func FuzzPatchDecode(f *testing.F) {
	f.Fuzz(func(t *testing.T, data []byte) {
		for _, in := range [][]byte{data, append(bytes.Clone(typePrefix), data...)} {
			if got, err := Decode(in); err == nil {
				requireGobAgrees(t, in, got)
			}
		}
		bp := fuzzPatch(data)
		enc, err := Encode(bp)
		if err != nil {
			t.Fatal(err)
		}
		got, err := Decode(enc)
		if err != nil {
			t.Fatalf("Decode(Encode(%+v)): %v", bp, err)
		}
		requireGobAgrees(t, enc, got)
		if want := gobNormal(bp); !reflect.DeepEqual(got, want) {
			t.Fatalf("round trip:\n got %+v\nwant %+v", got, want)
		}
	})
}
