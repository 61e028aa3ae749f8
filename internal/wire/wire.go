// Package wire is the field codec of the binary messages that cross
// the system's trust boundaries: the patch server's request/response
// frames and the preparation enclave's ECALL argument and result
// blocks. Fields go in a fixed order; integers and lengths are
// uvarints, bools are one byte.
//
// Encoding appends to a caller-owned slice and cannot fail. Decoding
// reads a peer's bytes, so it fails closed: every length is checked
// against the remaining input before it is used, a non-minimal
// uvarint or a bool other than 0/1 is rejected (so every accepted
// message re-encodes to the same bytes), and the first error sticks.
// Byte fields alias the input rather than copying it.
package wire

import (
	"encoding/binary"
	"errors"
	"fmt"
	"math"
)

// AppendUvarint appends v as a uvarint.
func AppendUvarint(b []byte, v uint64) []byte { return binary.AppendUvarint(b, v) }

// AppendVarint appends v as a zig-zag varint.
func AppendVarint(b []byte, v int64) []byte { return binary.AppendVarint(b, v) }

// AppendBytes appends p with its uvarint length.
func AppendBytes(b, p []byte) []byte {
	return append(binary.AppendUvarint(b, uint64(len(p))), p...)
}

// AppendString appends s with its uvarint length.
func AppendString(b []byte, s string) []byte {
	return append(binary.AppendUvarint(b, uint64(len(s))), s...)
}

// AppendBool appends v as one byte, 0 or 1.
func AppendBool(b []byte, v bool) []byte {
	if v {
		return append(b, 1)
	}
	return append(b, 0)
}

// errTruncated reports input that ends inside a field.
var errTruncated = errors.New("wire: truncated input")

// Decoder reads fields in order from one message. After the first
// error every read returns a zero value; Finish reports it.
type Decoder struct {
	buf []byte
	err error
}

// NewDecoder starts decoding b. Byte fields the decoder returns alias b.
func NewDecoder(b []byte) *Decoder { return &Decoder{buf: b} }

func (d *Decoder) fail(err error) {
	if d.err == nil {
		d.err = err
	}
	d.buf = nil
}

// Uvarint reads a minimally encoded uvarint.
func (d *Decoder) Uvarint() uint64 {
	if d.err != nil {
		return 0
	}
	v, n := binary.Uvarint(d.buf)
	switch {
	case n == 0:
		d.fail(errTruncated)
		return 0
	case n < 0:
		d.fail(errors.New("wire: uvarint overflows 64 bits"))
		return 0
	case n > 1 && d.buf[n-1] == 0:
		d.fail(errors.New("wire: non-minimal uvarint"))
		return 0
	}
	d.buf = d.buf[n:]
	return v
}

// Varint reads a minimally encoded zig-zag varint.
func (d *Decoder) Varint() int64 {
	u := d.Uvarint()
	v := int64(u >> 1)
	if u&1 != 0 {
		v = ^v
	}
	return v
}

// Uint32 reads a uvarint that must fit in 32 bits.
func (d *Decoder) Uint32() uint32 {
	v := d.Uvarint()
	if v > math.MaxUint32 {
		d.fail(fmt.Errorf("wire: %d overflows uint32", v))
		return 0
	}
	return uint32(v)
}

// Int reads a uvarint that must fit in a non-negative int.
func (d *Decoder) Int() int {
	v := d.Uvarint()
	if v > math.MaxInt {
		d.fail(fmt.Errorf("wire: %d overflows int", v))
		return 0
	}
	return int(v)
}

// Len reads an element count. Each element takes at least one byte, so
// a count above the remaining input is rejected before the caller
// allocates for it.
func (d *Decoder) Len() int {
	n := d.Uvarint()
	if n > uint64(len(d.buf)) {
		d.fail(errTruncated)
		return 0
	}
	return int(n)
}

// Bytes reads a length-prefixed byte field, aliasing the input. An
// empty field reads as nil.
func (d *Decoder) Bytes() []byte {
	n := d.Uvarint()
	if n > uint64(len(d.buf)) {
		d.fail(errTruncated)
		return nil
	}
	if n == 0 {
		return nil
	}
	p := d.buf[:n:n]
	d.buf = d.buf[n:]
	return p
}

// String reads a length-prefixed string.
func (d *Decoder) String() string { return string(d.Bytes()) }

// Fixed reads exactly len(dst) raw bytes into dst.
func (d *Decoder) Fixed(dst []byte) {
	if d.err != nil {
		return
	}
	if len(d.buf) < len(dst) {
		d.fail(errTruncated)
		return
	}
	copy(dst, d.buf)
	d.buf = d.buf[len(dst):]
}

// Bool reads one byte that must be 0 or 1.
func (d *Decoder) Bool() bool {
	if d.err != nil {
		return false
	}
	if len(d.buf) == 0 {
		d.fail(errTruncated)
		return false
	}
	b := d.buf[0]
	if b > 1 {
		d.fail(fmt.Errorf("wire: non-canonical bool %#x", b))
		return false
	}
	d.buf = d.buf[1:]
	return b == 1
}

// Finish reports the first decode error, or an error when input
// remains after the last field.
func (d *Decoder) Finish() error {
	if d.err != nil {
		return d.err
	}
	if len(d.buf) != 0 {
		return fmt.Errorf("wire: %d trailing bytes", len(d.buf))
	}
	return nil
}
