package wire

import (
	"bytes"
	"testing"
)

func TestRoundTrip(t *testing.T) {
	b := AppendUvarint(nil, 300)
	b = AppendVarint(b, -7)
	b = AppendBytes(b, []byte("blob"))
	b = AppendString(b, "id")
	b = AppendBool(b, true)
	b = AppendBytes(b, nil)
	b = append(b, 1, 2, 3)

	d := NewDecoder(b)
	u, v, p, s, ok, empty := d.Uvarint(), d.Varint(), d.Bytes(), d.String(), d.Bool(), d.Bytes()
	var fixed [3]byte
	d.Fixed(fixed[:])
	if err := d.Finish(); err != nil {
		t.Fatal(err)
	}
	if u != 300 || v != -7 || !bytes.Equal(p, []byte("blob")) || s != "id" || !ok || empty != nil || fixed != [3]byte{1, 2, 3} {
		t.Errorf("decoded %d %d %q %q %v %v %v", u, v, p, s, ok, empty, fixed)
	}
}

// TestRejects covers every way a decoder fails closed: each input is
// refused by Finish, and reads after a field error return zero values.
func TestRejects(t *testing.T) {
	for _, tc := range []struct {
		name string
		in   []byte
		read func(*Decoder)
	}{
		{"empty uvarint", nil, func(d *Decoder) { d.Uvarint() }},
		{"non-minimal uvarint", []byte{0x80, 0x00}, func(d *Decoder) { d.Uvarint() }},
		{"uvarint overflow", bytes.Repeat([]byte{0xff}, 11), func(d *Decoder) { d.Uvarint() }},
		{"uint32 overflow", AppendUvarint(nil, 1<<32), func(d *Decoder) { d.Uint32() }},
		{"length past input", []byte{5, 'a', 'b'}, func(d *Decoder) { d.Bytes() }},
		{"count past input", []byte{3, 0, 0}, func(d *Decoder) { d.Len() }},
		{"non-canonical bool", []byte{2}, func(d *Decoder) { d.Bool() }},
		{"missing bool", nil, func(d *Decoder) { d.Bool() }},
		{"short fixed", []byte{1}, func(d *Decoder) { d.Fixed(make([]byte, 2)) }},
		{"trailing bytes", []byte{1, 9}, func(d *Decoder) { d.Uvarint() }},
	} {
		t.Run(tc.name, func(t *testing.T) {
			d := NewDecoder(tc.in)
			tc.read(d)
			if err := d.Finish(); err == nil {
				t.Fatalf("%x accepted", tc.in)
			}
			if d.err != nil && (d.Uvarint() != 0 || d.Bytes() != nil || d.Bool()) {
				t.Error("read after an error returned data")
			}
		})
	}
}
