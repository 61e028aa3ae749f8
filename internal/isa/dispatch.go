package isa

import "fmt"

// Dispatch selects how a vCPU executes instructions.
type Dispatch int

const (
	// DispatchBlocks executes through the predecoded basic-block
	// engine (block.go), falling back to Step where predecoding cannot
	// represent an instruction exactly. This is the default.
	DispatchBlocks Dispatch = iota

	// DispatchOracle forces the per-instruction decode-switch
	// interpreter (CPU.Step) — the semantic oracle the block engine is
	// verified against, and the baseline for dispatch benchmarks.
	DispatchOracle

	// DispatchLockstep runs the block engine and the oracle in
	// differential lockstep: every dispatch unit executes under both
	// (via snapshot-rewind-replay on the same memory) and any state,
	// memory, or error divergence fails the unit. Verification only —
	// orders of magnitude slower than either engine alone.
	DispatchLockstep
)

// String returns the flag-friendly name of the dispatch mode.
func (d Dispatch) String() string {
	switch d {
	case DispatchBlocks:
		return "blocks"
	case DispatchOracle:
		return "oracle"
	case DispatchLockstep:
		return "lockstep"
	default:
		return fmt.Sprintf("dispatch(%d)", int(d))
	}
}

// Runner executes dispatch units on a CPU: at least one instruction per
// unit (budget permitting), never more than budget. The machine's run
// loop brackets each unit between SMI pause points, so a unit is the
// granularity at which patches land and state saves are taken.
type Runner interface {
	RunUnit(budget int) (retired int, err error)
}

// NewRunner returns the Runner implementing the dispatch mode for c.
func NewRunner(c *CPU, d Dispatch) Runner {
	switch d {
	case DispatchOracle:
		return oracleRunner{c}
	case DispatchLockstep:
		return NewLockstep(c)
	default:
		return NewEngine(c)
	}
}

// oracleRunner adapts CPU.Step to the Runner interface: one
// instruction per unit.
type oracleRunner struct{ c *CPU }

func (r oracleRunner) RunUnit(budget int) (int, error) {
	before := r.c.Steps
	err := r.c.Step()
	return int(r.c.Steps - before), err
}
