// Package sgx simulates the Intel SGX surface KShot depends on: an
// Enclave Page Cache whose pages no non-enclave privilege can touch,
// enclave lifecycle (create, load, measure, destroy), a measurement-
// based identity used for attestation by the remote patch server, and
// the ECALL boundary through which the untrusted helper application
// invokes enclave functionality.
//
// Enclave program bodies are Go code standing in for compiled enclave
// binaries, but all persistent enclave state lives in EPC pages
// accessed at enclave privilege on the shared physical memory — a
// compromised kernel reading or writing those addresses faults exactly
// as the EPC access controls would make it fault on hardware.
package sgx

import (
	"crypto/sha256"
	"errors"
	"fmt"
	"sync"

	"kshot/internal/faultinject"
	"kshot/internal/mem"
	"kshot/internal/obs"
)

// RegionEPC is the mapped EPC region name.
const RegionEPC = "sgx.epc"

// PageSize is the EPC allocation granule.
const PageSize = 4096

// Errors.
var (
	// ErrNoEPC is returned when enclave creation exhausts EPC pages.
	ErrNoEPC = errors.New("sgx: out of EPC pages")

	// ErrDestroyed is returned for calls into a destroyed enclave.
	ErrDestroyed = errors.New("sgx: enclave destroyed")
)

// Measurement is the enclave identity hash (MRENCLAVE analogue).
type Measurement [sha256.Size]byte

// Program is the code loaded into an enclave. Identity is the
// measured content (source identity + version); Init runs at load
// time inside the enclave; ECall serves enclave entry calls.
type Program interface {
	// Identity returns the measured identity of the enclave binary.
	Identity() string

	// Init is invoked once when the enclave is loaded.
	Init(env *Env) error

	// ECall dispatches an enclave call. args and the result cross the
	// trust boundary by value, like marshalled ECALL buffers.
	ECall(env *Env, fn int, args []byte) ([]byte, error)
}

// Platform manages the EPC and running enclaves on one machine.
type Platform struct {
	phys *mem.Physical
	base uint64
	size uint64

	mu     sync.Mutex
	nextID uint64
	// freePages is a simple page bitmap; enclaves are small and few.
	used []bool
	fi   *faultinject.Set
	obs  *obs.Hooks
}

// NewPlatform maps an EPC of the given size at base. EPC pages are
// accessible only at enclave privilege — not even SMM reads them on
// real hardware, and we preserve that.
func NewPlatform(phys *mem.Physical, base, size uint64) (*Platform, error) {
	if size == 0 || size%PageSize != 0 || base%PageSize != 0 {
		return nil, fmt.Errorf("sgx: EPC base/size must be page aligned (base %#x size %#x)", base, size)
	}
	if _, err := phys.Map(RegionEPC, base, size, mem.Perms{Enclave: mem.PermRW}); err != nil {
		return nil, fmt.Errorf("sgx: %w", err)
	}
	return &Platform{
		phys: phys,
		base: base,
		size: size,
		used: make([]bool, size/PageSize),
	}, nil
}

// SetFaultInjector installs (or, with nil, removes) the fault
// injection set consulted at the ECALL boundary of every enclave on
// this platform.
func (p *Platform) SetFaultInjector(fi *faultinject.Set) {
	p.mu.Lock()
	defer p.mu.Unlock()
	p.fi = fi
}

func (p *Platform) injector() *faultinject.Set {
	p.mu.Lock()
	defer p.mu.Unlock()
	return p.fi
}

// SetObserver installs (or, with nil, removes) the observability hooks
// counting ECALL crossings and enclave losses on this platform.
func (p *Platform) SetObserver(ob *obs.Hooks) {
	p.mu.Lock()
	defer p.mu.Unlock()
	p.obs = ob
}

func (p *Platform) observer() *obs.Hooks {
	p.mu.Lock()
	defer p.mu.Unlock()
	return p.obs
}

// Load creates an enclave with npages EPC pages, loads prog, computes
// its measurement, and runs Init inside.
func (p *Platform) Load(prog Program, npages int) (*Enclave, error) {
	if npages <= 0 {
		return nil, fmt.Errorf("sgx: enclave needs at least one page")
	}
	base, err := p.allocPages(npages)
	if err != nil {
		return nil, err
	}
	p.mu.Lock()
	p.nextID++
	id := p.nextID
	p.mu.Unlock()

	e := &Enclave{
		plat:        p,
		id:          id,
		prog:        prog,
		base:        base,
		size:        uint64(npages) * PageSize,
		measurement: Measure(prog),
	}
	// Zero the pages (EADD of zeroed pages).
	if err := p.phys.Zero(mem.PrivEnclave, base, e.size); err != nil {
		e.Destroy()
		return nil, fmt.Errorf("sgx: zeroing EPC: %w", err)
	}
	if err := prog.Init(e.env()); err != nil {
		e.Destroy()
		return nil, fmt.Errorf("sgx: enclave init: %w", err)
	}
	return e, nil
}

// Measure computes the measurement a program would load with, without
// loading it. The remote patch server uses this to know the expected
// identity of a genuine KShot preparation enclave.
func Measure(prog Program) Measurement {
	return MeasureIdentity(prog.Identity())
}

// MeasureIdentity computes the measurement for a program identity
// string, letting a remote verifier derive the expected measurement
// without instantiating the program.
func MeasureIdentity(identity string) Measurement {
	return sha256.Sum256([]byte("sgx-enclave-v1\x00" + identity))
}

func (p *Platform) allocPages(n int) (uint64, error) {
	p.mu.Lock()
	defer p.mu.Unlock()
	run := 0
	for i := range p.used {
		if p.used[i] {
			run = 0
			continue
		}
		run++
		if run == n {
			start := i - n + 1
			for j := start; j <= i; j++ {
				p.used[j] = true
			}
			return p.base + uint64(start)*PageSize, nil
		}
	}
	return 0, ErrNoEPC
}

func (p *Platform) freePages(base uint64, size uint64) {
	p.mu.Lock()
	defer p.mu.Unlock()
	start := (base - p.base) / PageSize
	for i := uint64(0); i < size/PageSize; i++ {
		p.used[start+i] = false
	}
}

// Enclave is one loaded enclave instance.
type Enclave struct {
	plat *Platform
	id   uint64
	prog Program
	base uint64
	size uint64

	measurement Measurement

	mu        sync.Mutex
	destroyed bool
}

// Measurement returns the enclave's identity hash.
func (e *Enclave) Measurement() Measurement { return e.measurement }

// Base returns the enclave's EPC base address (useful in tests that
// verify the kernel cannot read it).
func (e *Enclave) Base() uint64 { return e.base }

// Size returns the enclave's EPC size in bytes.
func (e *Enclave) Size() uint64 { return e.size }

// ECall enters the enclave. The args buffer is copied before crossing
// the boundary so the untrusted caller cannot mutate it mid-call.
func (e *Enclave) ECall(fn int, args []byte) ([]byte, error) {
	e.mu.Lock()
	if e.destroyed {
		e.mu.Unlock()
		return nil, ErrDestroyed
	}
	e.mu.Unlock()
	ob := e.plat.observer()
	ob.Count(obs.CtrECalls, 1)
	// Fault injection at the trust boundary: an enclave loss (EPC
	// power event, enclave crash) surfaces as ErrDestroyed so callers
	// exercise their reload path; an ECALL failure is a plain error.
	fi := e.plat.injector()
	if fi.Fire(faultinject.SGXDestroy) {
		e.Destroy()
		ob.Count(obs.CtrEnclaveLost, 1)
		return nil, ErrDestroyed
	}
	if err := fi.Error(faultinject.SGXECallFail); err != nil {
		return nil, fmt.Errorf("sgx: ecall %d: %w", fn, err)
	}
	in := append([]byte(nil), args...)
	return e.prog.ECall(e.env(), fn, in)
}

// Destroy removes the enclave and frees its EPC pages. Page contents
// are scrubbed first, as EREMOVE guarantees.
func (e *Enclave) Destroy() {
	e.mu.Lock()
	defer e.mu.Unlock()
	if e.destroyed {
		return
	}
	e.destroyed = true
	// Scrub failures cannot happen on a mapped EPC; ignore by
	// construction (the region exists for the platform lifetime).
	_ = e.plat.phys.Zero(mem.PrivEnclave, e.base, e.size)
	e.plat.freePages(e.base, e.size)
}

func (e *Enclave) env() *Env { return &Env{enclave: e} }

// Env is the in-enclave view handed to Program methods: EPC access at
// enclave privilege, bounds-checked to this enclave's own pages.
type Env struct {
	enclave *Enclave
}

// Size returns the enclave's EPC byte length.
func (v *Env) Size() uint64 { return v.enclave.size }

func (v *Env) check(off uint64, n int) error {
	if off+uint64(n) > v.enclave.size || off+uint64(n) < off {
		return fmt.Errorf("sgx: EPC access [%#x,+%d) outside enclave of %d bytes", off, n, v.enclave.size)
	}
	return nil
}

// Read copies enclave memory at offset off into dst.
func (v *Env) Read(off uint64, dst []byte) error {
	if err := v.check(off, len(dst)); err != nil {
		return err
	}
	return v.enclave.plat.phys.Read(mem.PrivEnclave, v.enclave.base+off, dst)
}

// Write stores src at enclave offset off.
func (v *Env) Write(off uint64, src []byte) error {
	if err := v.check(off, len(src)); err != nil {
		return err
	}
	return v.enclave.plat.phys.Write(mem.PrivEnclave, v.enclave.base+off, src)
}
