// Package machine glues physical memory and vCPUs into a runnable
// target machine with the pause/resume semantics KShot's SMM component
// relies on.
//
// Each vCPU executes call sessions on its own goroutine, checking a
// pause gate between dispatch units. Raising an SMI (from the smm
// package) pauses every vCPU at an instruction boundary — exactly the
// synchronous world-switch real SMM hardware performs — so the SMM
// handler observes a quiescent machine, and execution resumes where it
// stopped afterwards.
package machine

import (
	"errors"
	"fmt"
	"sync"
	"sync/atomic"

	"kshot/internal/isa"
	"kshot/internal/mem"
)

// Default layout constants for the simulated target machine.
const (
	// DefaultPhysSize is the machine's physical memory size. The
	// paper's testbed has 16 GB; 256 MB is ample for the simulated
	// kernel plus the 18 MB reservation and keeps tests fast.
	DefaultPhysSize = 256 << 20

	// StackRegionBase is where per-vCPU kernel stacks are mapped.
	StackRegionBase = 0xC00_0000
	// StackSize is the per-vCPU kernel stack size.
	StackSize = 256 << 10
)

// ErrStopped is returned for work submitted to a stopped machine.
var ErrStopped = errors.New("machine: stopped")

// Config configures a new Machine.
type Config struct {
	PhysSize uint64 // physical memory bytes (default DefaultPhysSize)
	NumVCPUs int    // number of vCPUs (default 4)

	// Dispatch selects the execution engine: predecoded basic blocks
	// (the zero value, isa.DispatchBlocks), the decode-switch oracle,
	// or differential lockstep verification of the two. Lockstep
	// requires a single vCPU: it rewinds and replays shared memory
	// every dispatch unit.
	Dispatch isa.Dispatch
}

// Machine is the simulated target host.
type Machine struct {
	Mem *mem.Physical

	vcpus    []*VCPU
	dispatch isa.Dispatch

	gate pauseGate

	// quit is closed by Stop: runners exit, and a Call that has not
	// been taken up returns ErrStopped.
	quit     chan struct{}
	stopOnce sync.Once
}

// New builds a machine with mapped per-vCPU stacks and started vCPU
// runner goroutines. Call Stop when done.
func New(cfg Config) (*Machine, error) {
	if cfg.PhysSize == 0 {
		cfg.PhysSize = DefaultPhysSize
	}
	if cfg.NumVCPUs == 0 {
		cfg.NumVCPUs = 4
	}
	if cfg.Dispatch == isa.DispatchLockstep && cfg.NumVCPUs != 1 {
		return nil, fmt.Errorf("machine: lockstep dispatch requires exactly 1 vCPU, got %d", cfg.NumVCPUs)
	}
	m := &Machine{Mem: mem.New(cfg.PhysSize), dispatch: cfg.Dispatch, quit: make(chan struct{})}

	for i := 0; i < cfg.NumVCPUs; i++ {
		base := StackRegionBase + uint64(i)*StackSize
		name := fmt.Sprintf("stack.vcpu%d", i)
		// Stacks carry data, never code: no X at any privilege, so
		// pushes don't invalidate the block-dispatch code cache.
		if _, err := m.Mem.Map(name, base, StackSize, mem.Perms{
			Kernel: mem.PermRW,
			SMM:    mem.PermRW,
		}); err != nil {
			return nil, fmt.Errorf("machine: %w", err)
		}
		m.startVCPU(i)
	}
	return m, nil
}

// Fork clones the machine copy-on-write: the child gets a
// mem.Physical.Fork of physical memory (shared clean frames, private
// dirty frames, duplicated region table) and fresh vCPUs with fresh
// runner goroutines, stacks, and predecoded-block caches. Nothing is
// re-mapped — the per-vCPU stack regions are already present in the
// forked region table — so a fork costs O(frames) pointer work plus
// vCPU construction, independent of how much memory is resident.
//
// The parent must be quiescent (no call sessions in flight, no SMI
// pending); this is the template-fork provisioning contract — a
// template machine halts after kernel init and is only ever forked.
// Parent and child then run fully independently: separate pause
// gates, separate code epochs, separate block caches.
func (m *Machine) Fork() (*Machine, error) {
	select {
	case <-m.quit:
		return nil, ErrStopped
	default:
	}
	child := &Machine{Mem: m.Mem.Fork(), dispatch: m.dispatch, quit: make(chan struct{})}
	for i := range m.vcpus {
		child.startVCPU(i)
	}
	return child, nil
}

// startVCPU adds vCPU i, whose stack region is already mapped, and
// starts its runner goroutine.
func (m *Machine) startVCPU(i int) {
	cpu := isa.New(m.Mem, mem.PrivKernel)
	v := &VCPU{
		ID:       i,
		cpu:      cpu,
		runner:   isa.NewRunner(cpu, m.dispatch),
		stackTop: StackRegionBase + uint64(i+1)*StackSize,
		machine:  m,
		start:    make(chan struct{}),
		done:     make(chan callRes, 1),
	}
	m.vcpus = append(m.vcpus, v)
	go v.run()
}

// NumVCPUs returns the vCPU count.
func (m *Machine) NumVCPUs() int { return len(m.vcpus) }

// VCPU returns vCPU i.
func (m *Machine) VCPU(i int) *VCPU { return m.vcpus[i] }

// Stop shuts down all vCPU runner goroutines. In-flight sessions
// complete first; a Call still waiting for its vCPU returns
// ErrStopped. Stop is idempotent and safe to race with Call.
func (m *Machine) Stop() {
	m.stopOnce.Do(func() { close(m.quit) })
}

// Pause halts every vCPU at an instruction boundary and returns once
// all of them are quiescent. It is what an SMI does to the host.
func (m *Machine) Pause() { m.gate.pause() }

// Resume releases paused vCPUs (the RSM side of the world switch).
func (m *Machine) Resume() { m.gate.resume() }

// AppendStates appends the architectural state of every vCPU to dst.
// Only meaningful while paused (the SMM save-state step).
func (m *Machine) AppendStates(dst []isa.State) []isa.State {
	for _, v := range m.vcpus {
		dst = append(dst, v.cpu.Save())
	}
	return dst
}

// RestoreStates restores previously captured vCPU states. Only
// meaningful while paused (the RSM restore step).
func (m *Machine) RestoreStates(states []isa.State) error {
	if len(states) != len(m.vcpus) {
		return fmt.Errorf("machine: restoring %d states onto %d vcpus", len(states), len(m.vcpus))
	}
	for i, v := range m.vcpus {
		v.cpu.Restore(states[i])
	}
	return nil
}

// Snapshot is a whole-machine capture: physical memory (copy-on-write,
// frame-granular) plus every vCPU's architectural state. It is what a
// verification rig needs to prove a patch cycle left no residue.
type Snapshot struct {
	Mem    *mem.Snapshot
	States []isa.State
}

// Snapshot captures memory and vCPU state. Like States, it is only
// meaningful while the machine is paused or otherwise quiescent.
// Memory is captured copy-on-write, so the cost is independent of how
// much of physical memory is resident.
func (m *Machine) Snapshot() *Snapshot {
	return &Snapshot{Mem: m.Mem.Snapshot(), States: m.AppendStates(nil)}
}

// callReq is one function-call session submitted to a vCPU. Each
// vCPU reuses a single request, owned by whichever Call holds the
// vCPU's mutex.
type callReq struct {
	entry    uint64
	args     [5]uint64
	nargs    int
	maxSteps int
}

type callRes struct {
	ret uint64
	err error
}

// VCPU is one virtual CPU with a dedicated runner goroutine and kernel
// stack.
type VCPU struct {
	ID int

	cpu      *isa.CPU
	runner   isa.Runner
	stackTop uint64
	machine  *Machine

	// mu serializes Call sessions. Its holder owns req, hands it to
	// the runner with a send on start, and takes the result from done.
	mu    sync.Mutex
	req   callReq
	start chan struct{}
	done  chan callRes
}

// EngineStats returns the vCPU's block-cache counters and true when the
// dispatch mode uses the block engine (blocks or lockstep). Only
// meaningful while the vCPU is quiescent (no session in flight).
func (v *VCPU) EngineStats() (isa.EngineStats, bool) {
	switch r := v.runner.(type) {
	case *isa.Engine:
		return r.Stats(), true
	case *isa.Lockstep:
		return r.Engine().Stats(), true
	}
	return isa.EngineStats{}, false
}

// run is the vCPU runner goroutine: it executes submitted call
// sessions unit by unit, honoring the pause gate between units.
func (v *VCPU) run() {
	for {
		select {
		case <-v.start:
			v.done <- v.execute(&v.req)
		case <-v.machine.quit:
			return
		}
	}
}

// execute runs one call session inside one gate bracket, so a paused
// machine exposes stable architectural state to
// AppendStates/RestoreStates.
func (v *VCPU) execute(req *callReq) callRes {
	c := v.cpu
	g := &v.machine.gate

	g.enter()
	defer g.exit()
	c.Reg = [isa.NumRegs]uint64{}
	c.Reg[isa.RegSP] = v.stackTop
	copy(c.Reg[1:], req.args[:req.nargs])
	// Push the stop sentinel.
	c.Reg[isa.RegSP] -= 8
	err := c.M.WriteU64(c.Priv, c.Reg[isa.RegSP], isa.StopAddr)
	c.RIP = req.entry
	if err != nil {
		return callRes{err: err}
	}

	// Dispatch units are one basic block, or one instruction under the
	// oracle. The vCPU yields to a pending pause between units, so an
	// SMI still lands at an architectural instruction boundary (units
	// commit RIP before returning), just a coarser one than
	// single-stepping.
	for steps := 0; ; {
		if c.Done() {
			return callRes{ret: c.Reg[0]}
		}
		if steps >= req.maxSteps {
			return callRes{err: isa.ErrStepLimit}
		}
		n, err := v.runner.RunUnit(req.maxSteps - steps)
		if err != nil {
			return callRes{err: err}
		}
		if n < 1 {
			n = 1
		}
		steps += n
		g.poll()
	}
}

// Call runs the function at entry on this vCPU with up to five
// arguments, blocking until the session completes. It is safe to call
// from multiple goroutines; sessions on one vCPU serialize.
func (v *VCPU) Call(entry uint64, maxSteps int, args ...uint64) (uint64, error) {
	if len(args) > 5 {
		return 0, fmt.Errorf("vcpu %d: too many arguments (%d)", v.ID, len(args))
	}
	quit := v.machine.quit
	v.mu.Lock()
	defer v.mu.Unlock()
	select {
	case <-quit:
		return 0, ErrStopped
	default:
	}
	v.req.entry, v.req.maxSteps = entry, maxSteps
	v.req.nargs = copy(v.req.args[:], args)
	select {
	case v.start <- struct{}{}:
	case <-quit:
		return 0, ErrStopped
	}
	res := <-v.done
	return res.ret, res.err
}

// pauseGate coordinates the SMI world switch. A vCPU holds the read
// lock for a whole call session (enter/exit) and polls the pending
// counter between dispatch units: only when a pause is pending does
// it yield, dropping the read lock and parking in RLock until the
// pauser resumes. pause() raises pending before it takes the write
// lock, and resume() lowers it after releasing the lock, so a vCPU
// never misses a pause and pays one atomic load per unit otherwise.
// When pause() returns, every vCPU is parked at a unit boundary or
// between sessions: exactly the quiescence SMM hardware gives the
// handler, after at most the one unit each vCPU had in flight. The
// write lock is held until resume(), and concurrent pausers serialize
// on it.
type pauseGate struct {
	rw      sync.RWMutex
	pending atomic.Int32 // pausers waiting for or holding the write lock
}

// enter opens a session's bracket, parking while the machine is
// paused.
func (g *pauseGate) enter() { g.rw.RLock() }

// exit closes the bracket opened by enter.
func (g *pauseGate) exit() { g.rw.RUnlock() }

// poll yields the bracket to a pending pause. Call it between dispatch
// units, with the bracket held.
func (g *pauseGate) poll() {
	if g.pending.Load() != 0 {
		g.rw.RUnlock()
		g.rw.RLock()
	}
}

// pause requests a world switch and returns once no dispatch unit is
// in flight.
func (g *pauseGate) pause() {
	g.pending.Add(1)
	g.rw.Lock()
}

// resume releases parked vCPUs.
func (g *pauseGate) resume() {
	g.rw.Unlock()
	g.pending.Add(-1)
}
