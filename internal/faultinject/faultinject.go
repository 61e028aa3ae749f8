// Package faultinject is KShot's deterministic, seed-driven fault
// injection layer. Named injection points sit in the layers that carry
// the security argument — physical memory staging, SMI delivery, the
// SGX enclave boundary, the patch-server transport, and the batch
// pipeline. A Set is driven by a Plan, a fixed fault schedule per
// point, so any failure it provokes replays from the same plan.
//
// A Set reaches the layers as the Faults field of their obs.Hooks
// handle, and every point is consulted through obs.Hooks.Fault, which
// advances the Set and counts a fired fault in that same handle's
// metrics. Call sites apply the effect from the returned Fault (Err,
// Keep, FlipBit, Delay). A nil *Set is a valid, permanently-quiet
// injector, so production paths pay one predictable branch and
// nothing else. This package imports nothing internal, so obs can
// carry a Set without a cycle.
package faultinject

import (
	"errors"
	"fmt"
	"sort"
	"sync"
	"time"
)

// Point names one injection site. The dotted prefix is the package the
// hook lives in.
type Point string

// The injection points wired through the simulator.
const (
	// MemWCorrupt flips one bit of a helper write into the mem_W
	// staging region (a corrupted hand-off buffer).
	MemWCorrupt Point = "mem.w.corrupt"
	// MemWFault rejects a helper write into mem_W with an access
	// fault (staging denied mid-run).
	MemWFault Point = "mem.w.fault"

	// SMMRefuse makes the controller refuse to deliver an SMI before
	// pausing the machine (chipset drops the interrupt).
	SMMRefuse Point = "smm.refuse"
	// SMMBatchAbort aborts the batch handler between members: the
	// remaining members report errors but the SMI completes.
	SMMBatchAbort Point = "smm.batch.abort"

	// SGXECallFail fails an ECALL at the enclave boundary.
	SGXECallFail Point = "sgx.ecall.fail"
	// SGXDestroy destroys the enclave at an ECALL boundary (EPC loss,
	// enclave crash), surfacing sgx.ErrDestroyed to the caller.
	SGXDestroy Point = "sgx.destroy"

	// FetchError fails one patch fetch result.
	FetchError Point = "patchserver.fetch.error"
	// FetchTruncate truncates one fetched patch body.
	FetchTruncate Point = "patchserver.fetch.truncate"
	// FetchDelay injects extra latency into a fetch call (an induced
	// timeout when the caller's context expires first).
	FetchDelay Point = "patchserver.fetch.delay"
	// DialError fails a client's connect attempt (server unreachable,
	// transient network failure).
	DialError Point = "patchserver.dial.error"
	// AcceptStall wedges the server's accept loop for the injected
	// duration (slow or contended frontend).
	AcceptStall Point = "patchserver.accept.stall"
	// BuildCacheBypass drops the build-cache entry for the requested
	// artifact, forcing a full rebuild (cache corruption, cold restart).
	BuildCacheBypass Point = "patchserver.cache.bypass"

	// PipelineStall stalls a fetch worker before it issues its call.
	PipelineStall Point = "pipeline.stall"
	// PipelineCancel cancels the pipeline's context at a stage
	// boundary.
	PipelineCancel Point = "pipeline.cancel"
)

// Points returns every injection point, in stable order.
func Points() []Point {
	return []Point{
		MemWCorrupt, MemWFault,
		SMMRefuse, SMMBatchAbort,
		SGXECallFail, SGXDestroy,
		FetchError, FetchTruncate, FetchDelay,
		DialError, AcceptStall, BuildCacheBypass,
		PipelineStall, PipelineCancel,
	}
}

// ErrInjected is the sentinel all injected errors unwrap to, so tests
// and retry classifiers can tell induced failures from organic ones.
var ErrInjected = errors.New("faultinject: injected fault")

// Injected is the error Fault.Err returns. It unwraps to ErrInjected.
type Injected struct {
	Point Point
	Call  int
}

// Error implements the error interface.
func (e *Injected) Error() string {
	return fmt.Sprintf("faultinject: injected fault at %s (call %d)", e.Point, e.Call)
}

// Unwrap makes errors.Is(err, ErrInjected) hold.
func (e *Injected) Unwrap() error { return ErrInjected }

// Fault is one scheduled injection: fire at the point's Call-th pass
// (0-based). The remaining fields parameterize point-specific effects
// and are ignored by points that do not use them.
type Fault struct {
	Point Point
	Call  int

	// Bit selects which bit a corruption flips (taken modulo the
	// buffer length at the hook site).
	Bit uint
	// Frac is the fraction of a body a truncation keeps, in [0,1).
	Frac float64
	// Delay is the extra latency a delay/stall point injects.
	Delay time.Duration
}

// FlipBit applies the fault's corruption effect: it flips the planned
// bit of buf in place (modulo the buffer length).
func (f Fault) FlipBit(buf []byte) {
	if len(buf) == 0 {
		return
	}
	bit := f.Bit % uint(len(buf)*8)
	buf[bit/8] ^= 1 << (bit % 8)
}

// Err returns the fault as an *Injected error, for points whose effect
// is a failed operation.
func (f Fault) Err() error { return &Injected{Point: f.Point, Call: f.Call} }

// Keep returns how many bytes of an n-byte body a truncation keeps:
// the planned fraction, always fewer than n and never negative.
func (f Fault) Keep(n int) int {
	keep := int(float64(n) * f.Frac)
	if keep >= n {
		keep = n - 1
	}
	if keep < 0 {
		keep = 0
	}
	return keep
}

// Plan maps each armed point to its fault schedule.
type Plan struct {
	schedule map[Point][]Fault
}

// Exact builds a plan firing precisely the given faults — the
// targeted-injection entry point for per-package unit tests.
func Exact(faults ...Fault) *Plan {
	p := &Plan{schedule: make(map[Point][]Fault)}
	for _, f := range faults {
		p.schedule[f.Point] = append(p.schedule[f.Point], f)
	}
	for pt := range p.schedule {
		s := p.schedule[pt]
		sort.Slice(s, func(i, j int) bool { return s[i].Call < s[j].Call })
	}
	return p
}

// Set is the runtime injector the hooks consult. It tracks a call
// counter per point and fires the planned fault when the counter hits
// a scheduled index, recording everything it fired. All methods are
// safe on a nil receiver (permanently disabled) and for concurrent
// use.
type Set struct {
	mu    sync.Mutex
	plan  *Plan
	calls map[Point]int
	fired map[Point][]Fault
}

// New builds a Set driven by plan (nil plan means never fire).
func New(plan *Plan) *Set {
	return &Set{
		plan:  plan,
		calls: make(map[Point]int),
		fired: make(map[Point][]Fault),
	}
}

// Take advances the point's call counter and returns the scheduled
// fault if this pass is one.
func (s *Set) Take(pt Point) (Fault, bool) {
	if s == nil || s.plan == nil {
		return Fault{}, false
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	n := s.calls[pt]
	s.calls[pt] = n + 1
	for _, f := range s.plan.schedule[pt] {
		if f.Call == n {
			s.fired[pt] = append(s.fired[pt], f)
			return f, true
		}
	}
	return Fault{}, false
}

// Calls returns how many times the point has been consulted.
func (s *Set) Calls(pt Point) int {
	if s == nil {
		return 0
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.calls[pt]
}

// Fired returns how many faults actually fired across all points.
func (s *Set) Fired() int {
	if s == nil {
		return 0
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	n := 0
	for _, fs := range s.fired {
		n += len(fs)
	}
	return n
}

// Log returns every fault that fired, ordered by point then call —
// the determinism witness the chaos suite compares across runs.
func (s *Set) Log() []Fault {
	if s == nil {
		return nil
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	var out []Fault
	for _, pt := range Points() {
		out = append(out, s.fired[pt]...)
	}
	return out
}
