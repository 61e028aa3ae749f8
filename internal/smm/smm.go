// Package smm simulates x86 System Management Mode: locked SMRAM, SMI
// delivery that pauses the whole host and saves architectural state to
// the SMRAM state save area, handler execution at SMM privilege, and
// the RSM restore path.
//
// Two properties carry KShot's security argument and are enforced
// here exactly as hardware enforces them:
//
//  1. After the firmware locks SMRAM, no privilege level except SMM
//     can read or write it — handler code/data and the state save
//     area are out of reach of a compromised kernel, and new handlers
//     cannot be installed.
//  2. An SMI is a synchronous world switch: every vCPU halts at an
//     instruction boundary, its state is saved to SMRAM, the handler
//     runs on a quiescent machine, and RSM restores the saved state
//     bit-for-bit. The OS needs no checkpointing cooperation — the
//     hardware does it, which is the paper's overhead argument.
//
// Handler bodies are Go functions rather than interpreted code — they
// stand in for C firmware compiled into the BIOS — but every memory
// effect they have goes through SMM-privilege accesses on the shared
// physical memory, so isolation violations fault identically to
// hardware.
package smm

import (
	"encoding/binary"
	"errors"
	"fmt"
	"sync"
	"time"

	"kshot/internal/faultinject"
	"kshot/internal/isa"
	"kshot/internal/machine"
	"kshot/internal/mem"
	"kshot/internal/obs"
	"kshot/internal/timing"
)

// SMRAM layout constants.
const (
	// RegionSMRAM is the region name of the mapped SMRAM (TSEG).
	RegionSMRAM = "smram"

	// DefaultSMRAMSize is the simulated TSEG size.
	DefaultSMRAMSize = 4 << 20

	// saveSlotSize is the per-vCPU state save slot, matching the
	// 512-byte save state area of real SMM.
	saveSlotSize = 0x200

	// heapOffset is where handler-persistent storage begins inside
	// SMRAM (after the save area).
	heapOffset = 0x8000
)

// Command is an SMI command code, modeled on the byte written to the
// APM command port (0xB2) on real chipsets.
type Command uint8

// Errors.
var (
	// ErrLocked is returned when installing a handler after the
	// firmware locked SMRAM — the operation an SMM rootkit would need.
	ErrLocked = errors.New("smm: SMRAM is locked")

	// ErrUnclaimedSMI is returned when no handler is registered for a
	// triggered command.
	ErrUnclaimedSMI = errors.New("smm: unclaimed SMI command")
	// ErrRefused wraps an SMI the chipset dropped before entering SMM
	// (faultinject.SMMRefuse): no handler ran and no SMI-enter was
	// reported.
	ErrRefused = errors.New("smm: SMI refused")
)

// Handler is an SMM handler body, invoked with the machine paused.
// Its only access to the platform is the Context.
type Handler func(ctx *Context, arg uint64) error

// Controller is the SMM side of the simulated platform: it owns SMRAM
// and dispatches SMIs.
type Controller struct {
	machine *machine.Machine
	base    uint64
	size    uint64
	clock   *timing.Clock
	model   timing.Model

	mu       sync.Mutex
	locked   bool
	handlers map[Command]Handler
	obs      *obs.Hooks

	entries uint64        // SMIs dispatched
	pause   time.Duration // total virtual OS-pause across all SMIs
}

// NewController maps SMRAM at base and returns the controller. SMRAM
// starts unlocked (boot time): the "firmware" may install handlers,
// and kernel-privilege writes still succeed, as on real hardware
// before the D_LCK bit is set. Call Lock before handing control to
// the OS.
func NewController(m *machine.Machine, base uint64, clock *timing.Clock, model timing.Model) (*Controller, error) {
	if clock == nil {
		clock = &timing.Clock{}
	}
	c := &Controller{
		machine:  m,
		base:     base,
		size:     DefaultSMRAMSize,
		clock:    clock,
		model:    model,
		handlers: make(map[Command]Handler),
	}
	if _, err := m.Mem.Map(RegionSMRAM, base, c.size, mem.Perms{
		Kernel: mem.PermRW, // pre-lock only; Lock() revokes this
		SMM:    mem.PermRWX,
	}); err != nil {
		return nil, fmt.Errorf("smm: %w", err)
	}
	if heapOffset < uint64(m.NumVCPUs())*saveSlotSize {
		return nil, fmt.Errorf("smm: %d vCPUs exceed save area", m.NumVCPUs())
	}
	return c, nil
}

// Register installs a handler for an SMI command. It fails after Lock:
// handler installation is a firmware-only, boot-time operation.
func (c *Controller) Register(cmd Command, h Handler) error {
	c.mu.Lock()
	defer c.mu.Unlock()
	if c.locked {
		return ErrLocked
	}
	c.handlers[cmd] = h
	return nil
}

// Lock sets the simulated D_LCK bit: SMRAM becomes SMM-only and the
// handler table is frozen. Idempotent.
func (c *Controller) Lock() error {
	c.mu.Lock()
	defer c.mu.Unlock()
	if c.locked {
		return nil
	}
	if err := c.machine.Mem.SetPerms(RegionSMRAM, mem.Perms{SMM: mem.PermRWX}); err != nil {
		return fmt.Errorf("smm lock: %w", err)
	}
	c.locked = true
	return nil
}

// Entries returns the number of SMIs dispatched so far.
func (c *Controller) Entries() uint64 {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.entries
}

// TotalPause returns the cumulative virtual time the OS has spent
// paused inside SMIs: entry + exit switches plus every cost the
// handlers charged while the machine was stopped. Unlike clock spans,
// this is exact even when other goroutines (e.g. pipelined fetches)
// advance the shared clock concurrently.
func (c *Controller) TotalPause() time.Duration {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.pause
}

// Model returns the controller's cost model.
func (c *Controller) Model() timing.Model { return c.model }

// HeapBase returns the physical address of the handler-persistent
// SMRAM heap.
func (c *Controller) HeapBase() uint64 { return c.base + heapOffset }

// HeapSize returns the heap length in bytes.
func (c *Controller) HeapSize() uint64 { return c.size - heapOffset }

// SetObserver installs (or, with nil, removes) the instrumentation
// handle: it records SMI entries, world switches and per-SMI pause
// time, may refuse an SMI (faultinject.SMMRefuse), and brackets every
// SMI for the introspection sink.
func (c *Controller) SetObserver(h *obs.Hooks) {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.obs = h
}

// Trigger raises an SMI with the given command and argument: the
// machine pauses, all vCPU states are saved into the SMRAM save area,
// the handler runs, states are restored from SMRAM, and the machine
// resumes. The handler's error is returned to the (trusted) caller;
// the OS itself observes nothing but elapsed time.
func (c *Controller) Trigger(cmd Command, arg uint64) error {
	c.mu.Lock()
	h, ok := c.handlers[cmd]
	ob := c.obs
	c.mu.Unlock()

	// Injected delivery refusal: the chipset drops the SMI before any
	// world switch, so no state is saved and nothing pauses — the
	// failure mode of a hostile platform suppressing patching.
	if f, ok := ob.Fault(faultinject.SMMRefuse); ok {
		return fmt.Errorf("%w: %#02x: %w", ErrRefused, uint8(cmd), f.Err())
	}

	if ob != nil {
		ob.Count(obs.CtrSMIEntries, 1)
		ob.Span(obs.PhaseSMIEnter, fmt.Sprintf("smi:%#02x", uint8(cmd)), -1, c.model.SMMEntry, 0)
		if ob.Introspect != nil {
			ob.Introspect.OnSMIEnter(uint8(cmd))
		}
	}

	c.machine.Pause()
	defer c.machine.Resume()
	c.clock.Advance(c.model.SMMEntry)
	defer c.clock.Advance(c.model.SMMExit)

	ctx := &Context{ctrl: c, Arg: arg}
	defer func() {
		pause := c.model.SMMEntry + c.model.SMMExit + ctx.charged
		c.mu.Lock()
		c.pause += pause
		c.mu.Unlock()
		if ob != nil {
			// The resume span carries the whole pause this SMI cost —
			// the OS observes exactly this much stolen time.
			ob.Span(obs.PhaseResume, fmt.Sprintf("smi:%#02x", uint8(cmd)), -1, pause, 0)
			ob.ObserveDur(obs.HistSMIPause, pause)
			// Exit event fires while the machine is still paused (this
			// deferred func runs before the Resume defer), so a tap
			// here observes the exact post-handler, pre-resume state.
			if ob.Introspect != nil {
				ob.Introspect.OnSMIExit(uint8(cmd), pause)
			}
		}
	}()

	c.mu.Lock()
	c.entries++
	c.mu.Unlock()

	if !ok {
		// Real hardware would execute a default handler; an unclaimed
		// command is a platform configuration bug.
		return fmt.Errorf("%w: %#02x", ErrUnclaimedSMI, uint8(cmd))
	}

	// One buffer carries the states out to SMRAM and back; a machine
	// with more vCPUs than it holds spills to the heap.
	var buf [smiStackVCPUs]isa.State
	states := c.machine.AppendStates(buf[:0])
	if err := c.saveStates(states); err != nil {
		return fmt.Errorf("smm: save state: %w", err)
	}

	handlerErr := h(ctx, arg)

	states, err := c.loadStates(states[:0], len(states))
	if err != nil {
		return fmt.Errorf("smm: load state: %w", err)
	}
	if err := c.machine.RestoreStates(states); err != nil {
		return fmt.Errorf("smm: restore state: %w", err)
	}
	return handlerErr
}

// smiStackVCPUs is how many vCPU states Trigger keeps on its stack.
const smiStackVCPUs = 8

// stateSize is the serialized size of one isa.State.
const stateSize = isa.NumRegs*8 + 8 + 1 + 1 + 1

// saveStates serializes vCPU states into the SMRAM save area using
// SMM-privilege writes (the memory round trip is part of the model:
// state really lives in SMRAM while the handler runs).
func (c *Controller) saveStates(states []isa.State) error {
	for i, s := range states {
		buf := make([]byte, 0, stateSize)
		for _, r := range s.Reg {
			buf = binary.LittleEndian.AppendUint64(buf, r)
		}
		buf = binary.LittleEndian.AppendUint64(buf, s.RIP)
		buf = append(buf, boolByte(s.ZF), boolByte(s.SF), byte(s.Priv))
		addr := c.base + uint64(i)*saveSlotSize
		if err := c.machine.Mem.Write(mem.PrivSMM, addr, buf); err != nil {
			return err
		}
	}
	return nil
}

// loadStates deserializes n vCPU states from the SMRAM save area and
// appends them to dst.
func (c *Controller) loadStates(dst []isa.State, n int) ([]isa.State, error) {
	var buf [stateSize]byte
	for i := 0; i < n; i++ {
		addr := c.base + uint64(i)*saveSlotSize
		if err := c.machine.Mem.Read(mem.PrivSMM, addr, buf[:]); err != nil {
			return nil, err
		}
		var s isa.State
		for r := 0; r < isa.NumRegs; r++ {
			s.Reg[r] = binary.LittleEndian.Uint64(buf[r*8:])
		}
		s.RIP = binary.LittleEndian.Uint64(buf[isa.NumRegs*8:])
		s.ZF = buf[isa.NumRegs*8+8] != 0
		s.SF = buf[isa.NumRegs*8+9] != 0
		s.Priv = mem.Priv(buf[isa.NumRegs*8+10])
		dst = append(dst, s)
	}
	return dst, nil
}

func boolByte(b bool) byte {
	if b {
		return 1
	}
	return 0
}

// Context is the platform interface an SMM handler sees while the
// machine is paused. All memory operations execute at SMM privilege.
type Context struct {
	ctrl *Controller
	Arg  uint64

	// charged accumulates the virtual time this SMI's handler charged.
	// Only the handler goroutine touches it (the machine is paused), so
	// it needs no lock.
	charged time.Duration
}

// Read copies physical memory at SMM privilege.
func (ctx *Context) Read(addr uint64, dst []byte) error {
	return ctx.ctrl.machine.Mem.Read(mem.PrivSMM, addr, dst)
}

// Write stores to physical memory at SMM privilege.
func (ctx *Context) Write(addr uint64, src []byte) error {
	return ctx.ctrl.machine.Mem.Write(mem.PrivSMM, addr, src)
}

// ReadU64 reads a little-endian 64-bit value at SMM privilege.
func (ctx *Context) ReadU64(addr uint64) (uint64, error) {
	return ctx.ctrl.machine.Mem.ReadU64(mem.PrivSMM, addr)
}

// WriteU64 writes a little-endian 64-bit value at SMM privilege.
func (ctx *Context) WriteU64(addr uint64, v uint64) error {
	return ctx.ctrl.machine.Mem.WriteU64(mem.PrivSMM, addr, v)
}

// VCPUStates returns the vCPU states saved in the SMRAM save area for
// the current SMI — what the handler inspects to decide whether any
// CPU was interrupted inside a region of interest.
func (ctx *Context) VCPUStates() ([]isa.State, error) {
	return ctx.ctrl.loadStates(nil, ctx.ctrl.machine.NumVCPUs())
}

// NumVCPUs returns the machine's vCPU count.
func (ctx *Context) NumVCPUs() int { return ctx.ctrl.machine.NumVCPUs() }

// HeapBase returns the handler-persistent SMRAM heap base address.
func (ctx *Context) HeapBase() uint64 { return ctx.ctrl.HeapBase() }

// HeapSize returns the SMRAM heap size.
func (ctx *Context) HeapSize() uint64 { return ctx.ctrl.HeapSize() }

// Model returns the calibrated cost model.
func (ctx *Context) Model() timing.Model { return ctx.ctrl.model }

// Charge advances the virtual clock by fixed + n bytes at rate and
// records the cost against the current SMI.
func (ctx *Context) Charge(fixed time.Duration, perByte timing.Rate, n int) {
	d := timing.Linear(fixed, perByte, n)
	ctx.charged += d
	ctx.ctrl.clock.Advance(d)
}

// Charged returns the virtual time charged so far during this SMI.
// Handlers use deltas of it to attribute per-stage costs: unlike clock
// spans, it is unaffected by concurrent clock advances from code
// running outside SMM (e.g. pipelined patch fetches).
func (ctx *Context) Charged() time.Duration { return ctx.charged }
