package isa

import (
	"fmt"

	"kshot/internal/mem"
)

// Differential lockstep execution: every dispatch unit runs under the
// block engine, then memory is rewound (copy-on-write snapshot) and the
// same unit replays under the oracle interpreter on the very same
// physical memory. Full architectural state, retired-step counts, error
// text, and every memory frame are compared at the unit boundary — a
// block boundary, by construction — so a divergence is caught at the
// first unit it occurs in, not at the end of the workload.
//
// The rewind-replay design is what makes lockstep composable with the
// rest of the simulator: exploits and syscalls perform arbitrary memory
// traffic, so two independent machines would drift apart for reasons
// that have nothing to do with dispatch. One machine, rewound per unit,
// compares the only thing under test: what this unit did.

// DivergenceError reports a behavioral difference between the block
// engine and the oracle interpreter within one dispatch unit. Any
// occurrence is a bug in the block engine (or, symmetrically, in the
// oracle).
type DivergenceError struct {
	Unit int    // dispatch unit index within the session
	RIP  uint64 // RIP at unit entry
	What string // which comparison failed

	BlocksState State
	OracleState State

	BlocksRetired uint64
	OracleRetired uint64

	BlocksErr string // error text, "" if nil
	OracleErr string
}

// Error implements the error interface.
func (e *DivergenceError) Error() string {
	return fmt.Sprintf("dispatch divergence at unit %d (rip %#x): %s: blocks{rip %#x zf %v sf %v retired %d err %q} vs oracle{rip %#x zf %v sf %v retired %d err %q}",
		e.Unit, e.RIP, e.What,
		e.BlocksState.RIP, e.BlocksState.ZF, e.BlocksState.SF, e.BlocksRetired, e.BlocksErr,
		e.OracleState.RIP, e.OracleState.ZF, e.OracleState.SF, e.OracleRetired, e.OracleErr)
}

// Lockstep is a Runner that cross-checks the block engine against the
// oracle interpreter unit by unit. It requires exclusive use of the
// underlying memory for the duration of each unit (single-vCPU
// machines; the SMI pause protocol provides the bracket).
type Lockstep struct {
	eng    *Engine
	oracle *CPU
	units  int
}

// NewLockstep creates a lockstep runner over c. The oracle replays on a
// shadow CPU sharing c's memory; c itself always carries the block
// engine's (verified) result forward.
func NewLockstep(c *CPU) *Lockstep {
	return &Lockstep{eng: NewEngine(c), oracle: New(c.M, c.Priv)}
}

// Engine returns the verified block engine, for cache statistics.
func (l *Lockstep) Engine() *Engine { return l.eng }

// RunUnit executes one unit under both engines and compares. On
// agreement it returns the block engine's result; on divergence it
// returns a *DivergenceError.
func (l *Lockstep) RunUnit(budget int) (int, error) {
	c := l.eng.C
	pre := c.Save()
	preSteps := c.Steps
	entryRIP := c.RIP
	snap := c.M.Snapshot()

	n, engErr := l.eng.RunUnit(budget)
	engState := c.Save()
	engRetired := c.Steps - preSteps
	engSnap := c.M.Snapshot()

	// Rewind memory and replay the same unit under the oracle. The
	// restore bumps the code epoch, so the engine re-decodes every
	// unit — slow, but it means lockstep also soaks the decoder.
	if err := c.M.Restore(snap); err != nil {
		return n, err
	}
	o := l.oracle
	o.Restore(pre)
	o.Steps = preSteps
	var oErr error
	for oErr == nil && o.Steps-preSteps < engRetired {
		oErr = o.Step()
	}
	if engErr == nil && oErr == nil && engRetired == 0 {
		// The engine made no progress without erroring — it must not;
		// step the oracle once so the comparison below exposes it.
		oErr = o.Step()
	}
	if engErr != nil && oErr == nil && o.Steps-preSteps == engRetired {
		// The engine's error retired nothing (fetch/decode failure);
		// the oracle's next step must fail identically.
		oErr = o.Step()
	}
	oRetired := o.Steps - preSteps

	div := &DivergenceError{
		Unit: l.units, RIP: entryRIP,
		BlocksState: engState, OracleState: o.Save(),
		BlocksRetired: engRetired, OracleRetired: oRetired,
		BlocksErr: errText(engErr), OracleErr: errText(oErr),
	}
	switch {
	case div.BlocksErr != div.OracleErr:
		div.What = "error mismatch"
	case engRetired != oRetired:
		div.What = "retired-step mismatch"
	case engState != o.Save():
		div.What = "architectural state mismatch"
	default:
		dirty, err := c.M.DiffFrames(engSnap)
		if err != nil {
			return n, err
		}
		if len(dirty) > 0 {
			div.What = fmt.Sprintf("memory mismatch in %d frame(s), first at %#x",
				len(dirty), mem.FrameAddr(dirty[0]))
		}
	}
	if div.What != "" {
		return n, div
	}

	// Agreement: memory holds the oracle's (identical) bytes; c still
	// holds the engine's state. Carry both forward.
	l.units++
	return n, engErr
}

func errText(err error) string {
	if err == nil {
		return ""
	}
	return err.Error()
}
