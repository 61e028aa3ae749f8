package patch

import (
	"bytes"
	"crypto/sha256"
	"testing"
	"unsafe"

	"kshot/internal/kcrypto"
)

// fuzzPrepared builds a Prepared from fuzz input, as fuzzPatch builds a
// BinaryPatch: successive bytes pick counts, flags, addresses and
// lengths. Replaced functions get a 5-byte trampoline, so every value
// marshals.
func fuzzPrepared(data []byte) *Prepared {
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
	p := &Prepared{ID: string(take()), KernelVersion: string(take())}
	p.Funcs = make([]PreparedFunc, next()%4)
	for i := range p.Funcs {
		f := &p.Funcs[i]
		f.Seq = uint16(num())
		f.Name = string(take())
		f.Type = Type(next())
		f.New = next()&1 == 1
		f.Traced = next()&1 == 1
		f.TAddr, f.TSize, f.PAddr = num(), num(), num()
		f.Payload = take()
		if f.TAddr != 0 {
			f.TrampolineAt = num()
			f.TrampolineBytes = append(take(), make([]byte, 5)...)[:5]
		}
	}
	p.Globals = make([]PreparedGlobal, next()%3)
	for i := range p.Globals {
		p.Globals[i] = PreparedGlobal{Name: string(take()), Addr: num(), Init: take()}
	}
	return p
}

// within reports whether b lies inside data's bytes.
func within(b, data []byte) bool {
	if len(b) == 0 {
		return true
	}
	lo, hi := uintptr(unsafe.Pointer(unsafe.SliceData(data))), uintptr(unsafe.Pointer(unsafe.SliceData(b)))
	return hi >= lo && hi+uintptr(len(b)) <= lo+uintptr(len(data))
}

// requireUnmarshalSound runs Unmarshal on data. It must not panic, and
// a package it accepts must alias data only inside it; when every
// declared payload digest verifies — the package SMM would go on to
// apply — it must marshal back to data, byte for byte. It reports
// whether Unmarshal accepted data.
func requireUnmarshalSound(t *testing.T, data []byte) bool {
	t.Helper()
	pkg, err := Unmarshal(data)
	if err != nil {
		return false
	}
	verified := len(pkg.FuncHashes) == len(pkg.Funcs)
	for i, f := range pkg.Funcs {
		if !within(f.Payload, data) || !within(f.TrampolineBytes, data) {
			t.Fatalf("func %d's payload or trampoline lies outside the input", i)
		}
		sum, err := kcrypto.Sum(pkg.HashAlg, f.Payload)
		verified = verified && err == nil && sum == pkg.FuncHashes[i]
	}
	for i, g := range pkg.Globals {
		if !within(g.Init, data) {
			t.Fatalf("global %d's init lies outside the input", i)
		}
	}
	if !verified {
		return true
	}
	p := &Prepared{ID: pkg.ID, KernelVersion: pkg.KernelVersion, Funcs: pkg.Funcs, Globals: pkg.Globals}
	again, err := AppendMarshal(nil, p, pkg.Op, pkg.HashAlg)
	if err != nil {
		t.Fatalf("accepted package does not marshal: %v", err)
	}
	if !bytes.Equal(again, data) {
		t.Fatalf("accepted package marshals to\n%x\nnot its input\n%x", again, data)
	}
	return true
}

// FuzzPackageUnmarshal holds SMM's package parser to its contract on
// any input: taken as is, and with its trailing digest recomputed so
// the parser reaches past the whole-package check. The input also
// builds a Prepared whose marshaled package must be MarshalSize bytes,
// be accepted and pass the same checks. Seeds are marshaled fuzz-built
// values.
func FuzzPackageUnmarshal(f *testing.F) {
	for _, seed := range [][]byte{
		nil,
		[]byte("\x06CVE-01\x034.4\x02\x00\x03\x01fn\x01\x00\x01\x02\x00\x01\x03\x05hello"),
		[]byte("\x02id\x01v\x03\x01\x07\x02\x01\x00\x01\x00\x01\x10\x01\x20\x04body\x01\x09\x02\x01\x08\x03ini"),
	} {
		wire, err := AppendMarshal(nil, fuzzPrepared(seed), OpPatch, kcrypto.HashSHA256)
		if err != nil {
			f.Fatal(err)
		}
		f.Add(wire)
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		requireUnmarshalSound(t, data)
		if len(data) >= kcrypto.DigestSize {
			body := data[:len(data)-kcrypto.DigestSize]
			sum := sha256.Sum256(body)
			requireUnmarshalSound(t, append(bytes.Clone(body), sum[:]...))
		}
		p := fuzzPrepared(data)
		for _, op := range []Op{OpPatch, OpRollback} {
			for _, alg := range []kcrypto.HashAlg{kcrypto.HashSHA256, kcrypto.HashSDBM} {
				wire, err := AppendMarshal(nil, p, op, alg)
				if err != nil {
					t.Fatalf("AppendMarshal(%+v): %v", p, err)
				}
				if len(wire) != MarshalSize(p) {
					t.Fatalf("AppendMarshal wrote %d bytes, MarshalSize says %d", len(wire), MarshalSize(p))
				}
				if !requireUnmarshalSound(t, wire) {
					t.Fatalf("Unmarshal refused AppendMarshal's package %x", wire)
				}
			}
		}
	})
}
