// Package timing provides the virtual-time cost model used to report
// paper-comparable latencies.
//
// The paper's absolute numbers come from rdtsc on an Intel i7 testbed
// running firmware SMM handlers and SGX enclaves; an interpreter-based
// simulation cannot (and should not) match them by measuring its own
// wall clock. Instead, every simulated operation advances a virtual
// clock by a cost drawn from a model calibrated against the paper's
// own measurements (Tables II and III and §VI-C2): fixed costs for SMM
// world switches and key generation, plus per-byte rates for fetching,
// preprocessing, passing, decryption, verification, and application.
// Because the simulator still performs the real work (real AES, real
// SHA-256, real byte copies), the *shape* of the results — linearity in
// patch size, which stage dominates, where fixed costs stop mattering —
// is produced by the implementation, while the virtual clock maps work
// onto the paper's time scale.
package timing

import (
	"sync/atomic"
	"time"
)

// Clock accumulates virtual time. It is safe for concurrent use.
type Clock struct {
	ns atomic.Int64
}

// Advance adds d to the virtual clock and returns the new reading.
func (c *Clock) Advance(d time.Duration) time.Duration {
	return time.Duration(c.ns.Add(int64(d)))
}

// Now returns the current virtual time.
func (c *Clock) Now() time.Duration { return time.Duration(c.ns.Load()) }

// Reset zeroes the clock.
func (c *Clock) Reset() { c.ns.Store(0) }

// Span measures the virtual time consumed by fn.
func (c *Clock) Span(fn func()) time.Duration {
	start := c.Now()
	fn()
	return c.Now() - start
}

// Rate is a per-byte processing cost in nanoseconds per byte. It is a
// float because several of the paper's per-byte rates are well below
// one nanosecond.
type Rate float64

// Model is the calibrated cost model. Fixed costs are per operation;
// Per* rates are per byte processed.
type Model struct {
	// SMM world switch and fixed SMM-side costs (§VI-C2).
	SMMEntry time.Duration // CPU switch into SMM
	SMMExit  time.Duration // RSM back to protected mode
	KeyGen   time.Duration // per-patch key generation in SMM (the paper's DH step), charged per rekey

	// SGX-side stages (Table II), fixed + per-byte.
	FetchFixed   time.Duration
	FetchPerByte Rate
	PrepFixed    time.Duration
	PrepPerByte  Rate
	PassFixed    time.Duration
	PassPerByte  Rate

	// SMM-side stages (Table III), fixed + per-byte.
	DecryptFixed   time.Duration
	DecryptPerByte Rate
	VerifyFixed    time.Duration
	VerifyPerByte  Rate
	ApplyFixed     time.Duration
	ApplyPerByte   Rate

	// VerifySDBMPerByte is the per-byte cost of the cheaper SDBM hash
	// the paper suggests as an alternative to SHA-2 (§VI-C2). Used by
	// the verification-hash ablation.
	VerifySDBMPerByte Rate

	// Baseline-system constants for the Table V comparison, drawn from
	// the paper's reported figures: KUP replaces the whole kernel in
	// ~3 s; kpatch's stop_machine-based application takes ~ms; KARMA
	// applies small instruction patches in <5 µs.
	KUPKexecFixed        time.Duration
	KUPCheckpointPerByte Rate
	KpatchStopMachine    time.Duration
	KpatchPerByte        Rate
	KARMAFixed           time.Duration
	KARMAPerByte         Rate
}

// Calibrated returns the model fitted to the paper's published
// measurements. Per-byte rates are two-point fits over Table II and
// Table III rows (400 B and 400 KB); fixed costs are the corresponding
// intercepts or the directly reported constants.
func Calibrated() Model {
	return Model{
		// §VI-C2: "the average times for switching to, and resuming
		// from, SMM are 12.9µs and 21.7µs"; "5.2µs to generate
		// encryption keys".
		SMMEntry: 12900 * time.Nanosecond,
		SMMExit:  21700 * time.Nanosecond,
		KeyGen:   5200 * time.Nanosecond,

		// Table II fits.
		FetchFixed:   52 * time.Microsecond,
		FetchPerByte: 41,
		PrepFixed:    83 * time.Microsecond,
		PrepPerByte:  1918,
		PassFixed:    9 * time.Microsecond,
		PassPerByte:  10,

		// Table III fits. Verification (SHA-2) dominates, as §VI-C2
		// observes.
		DecryptFixed:   40 * time.Nanosecond,
		DecryptPerByte: 0.33,
		VerifyFixed:    2900 * time.Nanosecond,
		VerifyPerByte:  0.75,
		ApplyFixed:     60 * time.Nanosecond,
		ApplyPerByte:   0.97,

		VerifySDBMPerByte: 0.15,

		// Table V constants.
		KUPKexecFixed:        3 * time.Second,
		KUPCheckpointPerByte: 2,
		KpatchStopMachine:    1500 * time.Microsecond,
		KpatchPerByte:        5,
		KARMAFixed:           2 * time.Microsecond,
		KARMAPerByte:         1,
	}
}

// Linear computes fixed + n*perByte.
func Linear(fixed time.Duration, perByte Rate, n int) time.Duration {
	return fixed + time.Duration(float64(n)*float64(perByte))
}
