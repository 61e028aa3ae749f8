package patch

import (
	"bytes"
	"errors"
	"fmt"
	"math"
)

// Decode parses a BinaryPatch produced by Encode. It reads exactly the
// bytes Encode writes without running encoding/gob: the input must
// start with this build's type-definition prefix, byte for byte, and
// the one value message after it must span the rest of the input.
// That message is parsed by hand, and anything Encode cannot have
// written is refused: a non-minimal uint, a field delta past the
// struct's last field, a bool other than 0 or 1, a length or count
// larger than the remaining input, a value that overflows its field,
// a missing struct terminator, and trailing bytes.
func Decode(data []byte) (*BinaryPatch, error) {
	if !bytes.HasPrefix(data, typePrefix) {
		return nil, errors.New("patch: decode: gob type definitions differ from this build's")
	}
	r := gobReader{buf: data[len(typePrefix):]}
	if n := r.uint(); r.err == nil && n != uint64(len(r.buf)) {
		r.fail(fmt.Errorf("message length %d, %d bytes follow", n, len(r.buf)))
	}
	if id := r.int(); r.err == nil && id != valueTypeID {
		r.fail(fmt.Errorf("value type ID %d, want %d", id, valueTypeID))
	}
	bp := r.binaryPatch()
	if r.err == nil && len(r.buf) != 0 {
		r.fail(fmt.Errorf("%d trailing bytes", len(r.buf)))
	}
	if r.err != nil {
		return nil, fmt.Errorf("patch: decode: %w", r.err)
	}
	return bp, nil
}

var errTruncated = errors.New("truncated input")

// gobReader reads gob's value encoding. After the first error every
// read returns a zero value.
type gobReader struct {
	buf []byte
	err error
}

func (r *gobReader) fail(err error) {
	if r.err == nil {
		r.err = err
	}
	r.buf = nil
}

// uint reads an unsigned integer: a byte below 0x80 is the value, any
// other byte is the negated count of the big-endian bytes that follow.
// Gob writes the shortest form, so that is the only one accepted.
func (r *gobReader) uint() uint64 {
	if len(r.buf) == 0 {
		r.fail(errTruncated)
		return 0
	}
	b := r.buf[0]
	if b < 0x80 {
		r.buf = r.buf[1:]
		return uint64(b)
	}
	n := -int(int8(b))
	if n > 8 {
		r.fail(fmt.Errorf("uint of %d bytes", n))
		return 0
	}
	if n >= len(r.buf) {
		r.fail(errTruncated)
		return 0
	}
	var x uint64
	for _, c := range r.buf[1 : 1+n] {
		x = x<<8 | uint64(c)
	}
	if r.buf[1] == 0 || x < 0x80 {
		r.fail(errors.New("non-minimal uint"))
		return 0
	}
	r.buf = r.buf[1+n:]
	return x
}

// int reads a signed integer: a uint whose low bit is the sign and
// whose other bits are the magnitude, complemented when negative.
func (r *gobReader) int() int64 {
	x := r.uint()
	if x&1 != 0 {
		return ^int64(x >> 1)
	}
	return int64(x >> 1)
}

// goInt reads a signed integer into a Go int.
func (r *gobReader) goInt() int {
	v := r.int()
	if int64(int(v)) != v {
		r.fail(fmt.Errorf("%d overflows int", v))
		return 0
	}
	return int(v)
}

func (r *gobReader) bool() bool {
	v := r.uint()
	if v > 1 {
		r.fail(fmt.Errorf("bool %d", v))
		return false
	}
	return v == 1
}

// count reads a length or element count. Every element takes at least
// one byte, so a count above the remaining input is refused before
// anything is allocated for it.
func (r *gobReader) count() int {
	n := r.uint()
	if n > uint64(len(r.buf)) {
		r.fail(errTruncated)
		return 0
	}
	return int(n)
}

func (r *gobReader) str() string {
	n := r.count()
	s := string(r.buf[:n])
	r.buf = r.buf[n:]
	return s
}

// blob reads a byte slice into a copy the result owns. Empty reads as
// nil, as gob returns it.
func (r *gobReader) blob() []byte {
	n := r.count()
	if n == 0 {
		return nil
	}
	b := bytes.Clone(r.buf[:n])
	r.buf = r.buf[n:]
	return b
}

// field reads the next field delta of a struct with n fields and
// returns the number of the field it leads to, or -1 at the struct's
// terminating zero delta or on error. Deltas are positive, so fields
// only move forward.
func (r *gobReader) field(prev, n int) int {
	d := r.uint()
	if d == 0 {
		return -1
	}
	if d > uint64(n-1-prev) {
		r.fail(fmt.Errorf("field delta %d after field %d of %d", d, prev, n))
		return -1
	}
	return prev + int(d)
}

// The struct readers below number fields in declaration order, as gob
// does. Zero-valued fields are absent from the stream, and empty
// slices with them, so those stay nil.

func (r *gobReader) binaryPatch() *BinaryPatch {
	bp := &BinaryPatch{}
	for f := r.field(-1, 5); f >= 0; f = r.field(f, 5) {
		switch f {
		case 0:
			bp.ID = r.str()
		case 1:
			bp.KernelVersion = r.str()
		case 2:
			if n := r.count(); n > 0 {
				bp.Funcs = make([]FuncPatch, n)
			}
			for i := range bp.Funcs {
				r.funcPatch(&bp.Funcs[i])
			}
		case 3:
			if n := r.count(); n > 0 {
				bp.Globals = make([]GlobalEdit, n)
			}
			for i := range bp.Globals {
				r.globalEdit(&bp.Globals[i])
			}
		case 4:
			if n := r.count(); n > 0 {
				bp.Warnings = make([]string, n)
			}
			for i := range bp.Warnings {
				bp.Warnings[i] = r.str()
			}
		}
	}
	return bp
}

func (r *gobReader) funcPatch(fp *FuncPatch) {
	for f := r.field(-1, 6); f >= 0; f = r.field(f, 6) {
		switch f {
		case 0:
			fp.Name = r.str()
		case 1:
			fp.Type = Type(r.goInt())
		case 2:
			fp.New = r.bool()
		case 3:
			fp.Traced = r.bool()
		case 4:
			fp.Payload = r.blob()
		case 5:
			if n := r.count(); n > 0 {
				fp.Relocs = make([]Reloc, n)
			}
			for i := range fp.Relocs {
				r.reloc(&fp.Relocs[i])
			}
		}
	}
}

func (r *gobReader) reloc(rl *Reloc) {
	for f := r.field(-1, 4); f >= 0; f = r.field(f, 4) {
		switch f {
		case 0:
			rl.Offset = r.goInt()
		case 1:
			k := r.uint()
			if k > math.MaxUint8 {
				r.fail(fmt.Errorf("reloc kind %d overflows", k))
			}
			rl.Kind = RelocKind(k)
		case 2:
			rl.Sym = r.str()
		case 3:
			rl.Addend = r.int()
		}
	}
}

func (r *gobReader) globalEdit(g *GlobalEdit) {
	for f := r.field(-1, 4); f >= 0; f = r.field(f, 4) {
		switch f {
		case 0:
			g.Name = r.str()
		case 1:
			g.New = r.bool()
		case 2:
			g.Size = r.uint()
		case 3:
			g.Init = r.blob()
		}
	}
}
