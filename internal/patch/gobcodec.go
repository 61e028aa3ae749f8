package patch

import (
	"bytes"
	_ "embed"
	"encoding/binary"
	"errors"
	"fmt"
)

// typePrefix holds the type-definition messages a fresh gob encoder
// writes ahead of a BinaryPatch value. Gob defines every type the
// value's type reaches, whatever the value holds, so Encode copies
// these bytes and Decode compares them instead of interpreting them.
// valueTypeID is the type ID of the value message after them.
//
//go:embed gobprefix.bin
var typePrefix []byte

const valueTypeID = 64

// Encode is the plaintext encoding of a BinaryPatch: what the server
// encrypts and the preparation enclave decodes. It is the stream gob's
// encoder writes for bp, byte for byte, because the ciphertext length
// is the input to the virtual fetch time; gob itself is not run.
func Encode(bp *BinaryPatch) []byte {
	c := gobCodec{enc: true}
	c.putInt(valueTypeID)
	c.binaryPatch(bp)
	return append(appendGobUint(bytes.Clone(typePrefix), uint64(len(c.buf))), c.buf...)
}

// Decode parses a BinaryPatch produced by Encode. The input must start
// with the type-definition prefix, byte for byte, and the one value
// message after it must span the rest of the input. Anything Encode
// cannot have written is refused: a non-minimal uint, a field delta
// past the struct's last field, a bool other than 0 or 1, a length or
// count larger than the remaining input, a value that overflows its
// field, a missing struct terminator, and trailing bytes.
func Decode(data []byte) (*BinaryPatch, error) {
	if !bytes.HasPrefix(data, typePrefix) {
		return nil, errors.New("patch: decode: gob type definitions differ from this build's")
	}
	c := gobCodec{buf: data[len(typePrefix):]}
	if n := c.uint(); c.err == nil && n != uint64(len(c.buf)) {
		c.fail(fmt.Errorf("message length %d, %d bytes follow", n, len(c.buf)))
	}
	if id := c.int(); c.err == nil && id != valueTypeID {
		c.fail(fmt.Errorf("value type ID %d, want %d", id, valueTypeID))
	}
	bp := &BinaryPatch{}
	c.binaryPatch(bp)
	if c.err == nil && len(c.buf) != 0 {
		c.fail(fmt.Errorf("%d trailing bytes", len(c.buf)))
	}
	if c.err != nil {
		return nil, fmt.Errorf("patch: decode: %w", c.err)
	}
	return bp, nil
}

// The walkers name each struct's fields in declaration order, which is
// how gob numbers them. A struct field is sent only when non-zero, as
// the delta from the previous field's number and then its value; a
// zero delta ends the struct. Slice elements are all sent. Absent
// fields read back as zero, so empty slices come back nil.

func (c *gobCodec) binaryPatch(bp *BinaryPatch) {
	s := gobStruct{n: 5, last: -1, next: -1}
	c.str(&s, &bp.ID)
	c.str(&s, &bp.KernelVersion)
	for i := range grow(c, &s, &bp.Funcs) {
		c.funcPatch(&bp.Funcs[i])
	}
	for i := range grow(c, &s, &bp.Globals) {
		c.globalEdit(&bp.Globals[i])
	}
	for i := range grow(c, &s, &bp.Warnings) {
		c.text(&bp.Warnings[i])
	}
	c.end(&s)
}

func (c *gobCodec) funcPatch(fp *FuncPatch) {
	s := gobStruct{n: 6, last: -1, next: -1}
	c.str(&s, &fp.Name)
	signed(c, &s, &fp.Type)
	c.bool(&s, &fp.New)
	c.bool(&s, &fp.Traced)
	c.blob(&s, &fp.Payload)
	for i := range grow(c, &s, &fp.Relocs) {
		c.reloc(&fp.Relocs[i])
	}
	c.end(&s)
}

func (c *gobCodec) reloc(rl *Reloc) {
	s := gobStruct{n: 4, last: -1, next: -1}
	signed(c, &s, &rl.Offset)
	unsigned(c, &s, &rl.Kind)
	c.str(&s, &rl.Sym)
	signed(c, &s, &rl.Addend)
	c.end(&s)
}

func (c *gobCodec) globalEdit(g *GlobalEdit) {
	s := gobStruct{n: 4, last: -1, next: -1}
	c.str(&s, &g.Name)
	c.bool(&s, &g.New)
	unsigned(c, &s, &g.Size)
	c.blob(&s, &g.Init)
	c.end(&s)
}

var errTruncated = errors.New("truncated input")

// gobCodec writes (enc) or reads gob's value encoding in buf. After the
// first read error every read returns a zero value.
type gobCodec struct {
	enc bool
	buf []byte
	err error
}

// gobStruct is a walk's position in a struct of n fields: i numbers the
// field visited next, last the last one written or read. When reading,
// next numbers the field the stream holds next (n at the terminator),
// or equals last while its delta is unread.
type gobStruct struct{ n, i, last, next int }

func (c *gobCodec) fail(err error) {
	if c.err == nil {
		c.err = err
	}
	c.buf = nil
}

// field moves s to its next field and reports whether that field is in
// the stream: when writing, whether its value is non-zero, in which
// case its delta is written; when reading, whether the stream holds it
// next.
func (c *gobCodec) field(s *gobStruct, nonzero bool) bool {
	i := s.i
	s.i++
	if c.enc {
		if nonzero {
			c.putUint(uint64(i - s.last))
			s.last = i
		}
		return nonzero
	}
	c.delta(s)
	if s.next != i {
		return false
	}
	s.last = i
	return true
}

// end closes s: it writes the terminator, or reads the delta after the
// last field, which must be the terminator.
func (c *gobCodec) end(s *gobStruct) {
	if c.enc {
		c.putUint(0)
		return
	}
	c.delta(s)
}

// delta reads the next field delta of s unless one is pending. Deltas
// are positive, so fields only move forward.
func (c *gobCodec) delta(s *gobStruct) {
	if s.next != s.last {
		return
	}
	switch d := c.uint(); {
	case d == 0:
		s.next = s.n
	case d > uint64(s.n-1-s.last):
		c.fail(fmt.Errorf("field delta %d after field %d of %d", d, s.last, s.n))
		s.next = s.n
	default:
		s.next = s.last + int(d)
	}
}

// grow visits a slice field: it sends the length, or reads one and
// makes the slice, and returns the slice whose elements come next.
func grow[T any](c *gobCodec, s *gobStruct, v *[]T) []T {
	if !c.field(s, len(*v) > 0) {
		return nil
	}
	if c.enc {
		c.putUint(uint64(len(*v)))
	} else if n := c.count(); n > 0 {
		*v = make([]T, n)
	}
	return *v
}

// signed visits a signed integer field.
func signed[T ~int | ~int64](c *gobCodec, s *gobStruct, v *T) {
	if !c.field(s, *v != 0) {
		return
	}
	if c.enc {
		c.putInt(int64(*v))
		return
	}
	if x := c.int(); int64(T(x)) != x {
		c.fail(fmt.Errorf("%d overflows %T", x, *v))
	} else {
		*v = T(x)
	}
}

// unsigned visits an unsigned integer field.
func unsigned[T ~uint8 | ~uint64](c *gobCodec, s *gobStruct, v *T) {
	if !c.field(s, *v != 0) {
		return
	}
	if c.enc {
		c.putUint(uint64(*v))
		return
	}
	if x := c.uint(); uint64(T(x)) != x {
		c.fail(fmt.Errorf("%d overflows %T", x, *v))
	} else {
		*v = T(x)
	}
}

// bool visits a bool field, sent as the uint 1.
func (c *gobCodec) bool(s *gobStruct, v *bool) {
	if !c.field(s, *v) {
		return
	}
	if c.enc {
		c.putUint(1)
		return
	}
	if x := c.uint(); x > 1 {
		c.fail(fmt.Errorf("bool %d", x))
	} else {
		*v = x == 1
	}
}

// str visits a string field.
func (c *gobCodec) str(s *gobStruct, v *string) {
	if c.field(s, *v != "") {
		c.text(v)
	}
}

// text visits a string: its length, then its bytes.
func (c *gobCodec) text(v *string) {
	if c.enc {
		c.putUint(uint64(len(*v)))
		c.buf = append(c.buf, *v...)
		return
	}
	n := c.count()
	*v = string(c.buf[:n])
	c.buf = c.buf[n:]
}

// blob visits a byte-slice field. It reads into a copy the result owns.
func (c *gobCodec) blob(s *gobStruct, v *[]byte) {
	if !c.field(s, len(*v) > 0) {
		return
	}
	if c.enc {
		c.putUint(uint64(len(*v)))
		c.buf = append(c.buf, *v...)
	} else if n := c.count(); n > 0 {
		*v = bytes.Clone(c.buf[:n])
		c.buf = c.buf[n:]
	}
}

func (c *gobCodec) putUint(x uint64) { c.buf = appendGobUint(c.buf, x) }

// putInt writes a signed integer as a uint whose low bit is the sign
// and whose other bits are the magnitude, complemented when negative.
func (c *gobCodec) putInt(x int64) {
	if x < 0 {
		c.putUint(uint64(^x)<<1 | 1)
	} else {
		c.putUint(uint64(x) << 1)
	}
}

// appendGobUint appends x as gob writes an unsigned integer: a value
// below 0x80 is one byte, any other is the negated count of the
// big-endian bytes that follow.
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

// uint reads an unsigned integer. Gob writes the shortest form, so
// that is the only one accepted.
func (c *gobCodec) uint() uint64 {
	if len(c.buf) == 0 {
		c.fail(errTruncated)
		return 0
	}
	b := c.buf[0]
	if b < 0x80 {
		c.buf = c.buf[1:]
		return uint64(b)
	}
	n := -int(int8(b))
	if n > 8 {
		c.fail(fmt.Errorf("uint of %d bytes", n))
		return 0
	}
	if n >= len(c.buf) {
		c.fail(errTruncated)
		return 0
	}
	var x uint64
	for _, b := range c.buf[1 : 1+n] {
		x = x<<8 | uint64(b)
	}
	if c.buf[1] == 0 || x < 0x80 {
		c.fail(errors.New("non-minimal uint"))
		return 0
	}
	c.buf = c.buf[1+n:]
	return x
}

// int reads a signed integer.
func (c *gobCodec) int() int64 {
	x := c.uint()
	if x&1 != 0 {
		return ^int64(x >> 1)
	}
	return int64(x >> 1)
}

// count reads a length or element count. Every element takes at least
// one byte, so a count above the remaining input is refused before
// anything is allocated for it.
func (c *gobCodec) count() int {
	n := c.uint()
	if n > uint64(len(c.buf)) {
		c.fail(errTruncated)
		return 0
	}
	return int(n)
}
