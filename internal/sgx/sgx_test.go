package sgx

import (
	"bytes"
	"encoding/binary"
	"errors"
	"fmt"
	"testing"

	"kshot/internal/mem"
)

const (
	epcBase = 0x800_0000
	epcSize = 64 * PageSize
)

func newTestPlatform(t *testing.T) (*mem.Physical, *Platform) {
	t.Helper()
	phys := mem.New(256 << 20)
	p, err := NewPlatform(phys, epcBase, epcSize)
	if err != nil {
		t.Fatal(err)
	}
	return phys, p
}

// counterProg is a minimal enclave program keeping a counter in EPC.
type counterProg struct {
	initErr error
}

func (p *counterProg) Identity() string { return "counter-enclave v1" }

func (p *counterProg) Init(env *Env) error {
	if p.initErr != nil {
		return p.initErr
	}
	return env.Write(0, make([]byte, 8))
}

func (p *counterProg) ECall(env *Env, fn int, args []byte) ([]byte, error) {
	switch fn {
	case 1: // increment by args[0]
		var buf [8]byte
		if err := env.Read(0, buf[:]); err != nil {
			return nil, err
		}
		v := binary.LittleEndian.Uint64(buf[:]) + uint64(args[0])
		binary.LittleEndian.PutUint64(buf[:], v)
		if err := env.Write(0, buf[:]); err != nil {
			return nil, err
		}
		return buf[:], nil
	case 2: // out-of-bounds probe
		return nil, env.Write(env.enclave.size, []byte{1})
	default:
		return nil, fmt.Errorf("no such ecall %d", fn)
	}
}

func TestEnclaveLifecycle(t *testing.T) {
	_, p := newTestPlatform(t)
	e, err := p.Load(&counterProg{}, 2)
	if err != nil {
		t.Fatal(err)
	}
	out, err := e.ECall(1, []byte{5})
	if err != nil {
		t.Fatal(err)
	}
	if binary.LittleEndian.Uint64(out) != 5 {
		t.Errorf("counter = %d, want 5", binary.LittleEndian.Uint64(out))
	}
	out, err = e.ECall(1, []byte{3})
	if err != nil {
		t.Fatal(err)
	}
	if binary.LittleEndian.Uint64(out) != 8 {
		t.Errorf("counter = %d, want 8 (state not persisted in EPC)", binary.LittleEndian.Uint64(out))
	}
	e.Destroy()
	if _, err := e.ECall(1, []byte{1}); !errors.Is(err, ErrDestroyed) {
		t.Errorf("ECall after destroy = %v", err)
	}
	e.Destroy() // idempotent
}

func TestEPCUnreachableFromOtherPrivileges(t *testing.T) {
	phys, p := newTestPlatform(t)
	e, err := p.Load(&counterProg{}, 1)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := e.ECall(1, []byte{9}); err != nil {
		t.Fatal(err)
	}
	buf := make([]byte, 8)
	for _, priv := range []mem.Priv{mem.PrivUser, mem.PrivKernel, mem.PrivSMM} {
		if err := phys.Read(priv, e.Base(), buf); err == nil {
			t.Errorf("%v read of EPC succeeded", priv)
		}
		if err := phys.Write(priv, e.Base(), buf); err == nil {
			t.Errorf("%v write of EPC succeeded", priv)
		}
	}
	// Enclave privilege works (that is how the enclave itself runs).
	if err := phys.Read(mem.PrivEnclave, e.Base(), buf); err != nil {
		t.Errorf("enclave read failed: %v", err)
	}
	if binary.LittleEndian.Uint64(buf) != 9 {
		t.Errorf("EPC content = %d, want 9", binary.LittleEndian.Uint64(buf))
	}
}

func TestEnvBoundsChecked(t *testing.T) {
	_, p := newTestPlatform(t)
	e, err := p.Load(&counterProg{}, 1)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := e.ECall(2, nil); err == nil {
		t.Error("out-of-enclave EPC write succeeded")
	}
}

func TestMeasurementStableAndDistinct(t *testing.T) {
	_, p := newTestPlatform(t)
	e1, err := p.Load(&counterProg{}, 1)
	if err != nil {
		t.Fatal(err)
	}
	e2, err := p.Load(&counterProg{}, 1)
	if err != nil {
		t.Fatal(err)
	}
	if e1.Measurement() != e2.Measurement() {
		t.Error("same program, different measurements")
	}
	if e1.Measurement() != Measure(&counterProg{}) {
		t.Error("Measure() disagrees with loaded measurement")
	}
	other := &otherProg{}
	e3, err := p.Load(other, 1)
	if err != nil {
		t.Fatal(err)
	}
	if e3.Measurement() == e1.Measurement() {
		t.Error("different programs, same measurement")
	}
}

type otherProg struct{}

func (o *otherProg) Identity() string                        { return "other v1" }
func (o *otherProg) Init(*Env) error                         { return nil }
func (o *otherProg) ECall(*Env, int, []byte) ([]byte, error) { return nil, nil }

func TestEPCExhaustionAndReuse(t *testing.T) {
	_, p := newTestPlatform(t)
	e, err := p.Load(&otherProg{}, 64)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := p.Load(&otherProg{}, 1); !errors.Is(err, ErrNoEPC) {
		t.Fatalf("overcommit = %v, want ErrNoEPC", err)
	}
	e.Destroy()
	if _, err := p.Load(&otherProg{}, 64); err != nil {
		t.Errorf("reload after destroy failed: %v", err)
	}
}

func TestDestroyScrubsPages(t *testing.T) {
	phys, p := newTestPlatform(t)
	e, err := p.Load(&counterProg{}, 1)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := e.ECall(1, []byte{7}); err != nil {
		t.Fatal(err)
	}
	base := e.Base()
	e.Destroy()
	buf := make([]byte, 8)
	if err := phys.Read(mem.PrivEnclave, base, buf); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(buf, make([]byte, 8)) {
		t.Errorf("EPC not scrubbed: % x", buf)
	}
}

// Load and Destroy scrub the EPC with mem.Zero, which validates like a
// write of zeros: with the EPC out of the enclave's reach (its
// permissions revoked), Load fails with exactly the fault a zero-page
// write at the enclave base raises and frees its pages, and Destroy
// still frees the pages it could not scrub.
func TestScrubFaultsOnUnmappedEPC(t *testing.T) {
	phys, p := newTestPlatform(t)
	e, err := p.Load(&otherProg{}, 2)
	if err != nil {
		t.Fatal(err)
	}
	if err := phys.SetPerms(RegionEPC, mem.Perms{}); err != nil {
		t.Fatal(err)
	}
	var want *mem.Fault
	if err := phys.Write(mem.PrivEnclave, epcBase, make([]byte, PageSize)); !errors.As(err, &want) {
		t.Fatalf("zero-page write on revoked EPC: %v, want a fault", err)
	}

	e.Destroy()
	// Every page is free again, so a full-size Load reaches its scrub.
	_, err = p.Load(&otherProg{}, epcSize/PageSize)
	var got *mem.Fault
	if !errors.As(err, &got) || *got != *want {
		t.Fatalf("Load on revoked EPC: %v, want %v", err, want)
	}

	if err := phys.SetPerms(RegionEPC, mem.Perms{Enclave: mem.PermRW}); err != nil {
		t.Fatal(err)
	}
	if _, err := p.Load(&otherProg{}, epcSize/PageSize); err != nil {
		t.Errorf("pages leaked by the failed Load: %v", err)
	}
}

func TestInitFailureUnwindsPages(t *testing.T) {
	_, p := newTestPlatform(t)
	if _, err := p.Load(&counterProg{initErr: errors.New("nope")}, 64); err == nil {
		t.Fatal("init failure not propagated")
	}
	// All pages must have been freed.
	if _, err := p.Load(&otherProg{}, 64); err != nil {
		t.Errorf("pages leaked after failed init: %v", err)
	}
}

func TestLoadValidation(t *testing.T) {
	_, p := newTestPlatform(t)
	if _, err := p.Load(&otherProg{}, 0); err == nil {
		t.Error("zero-page enclave accepted")
	}
	phys := mem.New(1 << 20)
	if _, err := NewPlatform(phys, 1, PageSize); err == nil {
		t.Error("unaligned EPC base accepted")
	}
	if _, err := NewPlatform(phys, 0, 100); err == nil {
		t.Error("unaligned EPC size accepted")
	}
}

func TestECallArgsCopied(t *testing.T) {
	_, p := newTestPlatform(t)
	e, err := p.Load(&echoProg{}, 1)
	if err != nil {
		t.Fatal(err)
	}
	args := []byte{1, 2, 3}
	out, err := e.ECall(0, args)
	if err != nil {
		t.Fatal(err)
	}
	args[0] = 99 // caller mutation must not affect the enclave's copy
	if out[0] != 1 {
		t.Error("enclave saw caller mutation")
	}
}

type echoProg struct{ saved []byte }

func (e *echoProg) Identity() string { return "echo" }
func (e *echoProg) Init(*Env) error  { return nil }
func (e *echoProg) ECall(_ *Env, _ int, args []byte) ([]byte, error) {
	e.saved = args
	return args, nil
}

// scribbleProg overwrites its argument block in place, the way the
// preparation enclave decrypts server blobs, and returns what it was
// given.
type scribbleProg struct{}

func (scribbleProg) Identity() string { return "scribble-enclave v1" }
func (scribbleProg) Init(*Env) error  { return nil }

func (scribbleProg) ECall(_ *Env, _ int, args []byte) ([]byte, error) {
	seen := bytes.Clone(args)
	for i := range args {
		args[i] = 0xFF
	}
	return seen, nil
}

// TestECallArgsPrivateToEnclave pins the ownership the enclave's
// in-place decryption relies on: ECall hands the program its own copy
// of the arguments on every call, so a program that mutates them never
// changes the caller's slice, and a repeated call with the same slice
// (the reload retry) sees the original bytes again.
func TestECallArgsPrivateToEnclave(t *testing.T) {
	_, p := newTestPlatform(t)
	e, err := p.Load(scribbleProg{}, 1)
	if err != nil {
		t.Fatal(err)
	}
	args := []byte("sealed server blob")
	want := bytes.Clone(args)
	for call := 0; call < 2; call++ {
		seen, err := e.ECall(1, args)
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(seen, want) {
			t.Errorf("call %d: program saw %q, want %q", call, seen, want)
		}
		if !bytes.Equal(args, want) {
			t.Fatalf("call %d: caller's args became %q after the program scribbled on its copy", call, args)
		}
	}
}
