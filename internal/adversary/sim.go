package adversary

import (
	"context"
	"encoding/binary"
	"fmt"
	"sync"
	"sync/atomic"
	"time"

	"kshot/internal/core"
	"kshot/internal/cvebench"
	"kshot/internal/introspect"
	"kshot/internal/kernel"
	"kshot/internal/mem"
	"kshot/internal/patchserver"
	"kshot/internal/smmpatch"
)

// advSpinVuln is the Groom attacker's parking gadget: a patch target
// that spins inside itself until released through a global, so the
// attacker can hold a vCPU in the function for as long as it wants to
// starve the activeness check.
const advSpinVuln = `
.global adv_entered 8
.global adv_release 8
.func adv_gadget          ; (x) -> x+1, parks until released
    movi r2, 1
    storeg adv_entered, r2
.wait:
    loadg r2, adv_release
    cmpi r2, 0
    jz .wait
    mov r0, r1
    addi r0, 1
    ret
.endfunc
.func adv_caller          ; keeps a return address into the gadget live
    push r1
    call adv_gadget
    pop r1
    ret
.endfunc
`

const advSpinFixed = `
.global adv_entered 8
.global adv_release 8
.func adv_gadget          ; patched: -> x+2
    movi r2, 1
    storeg adv_entered, r2
.wait:
    loadg r2, adv_release
    cmpi r2, 0
    jz .wait
    mov r0, r1
    addi r0, 2
    ret
.endfunc
.func adv_caller          ; patched: normalizes the error code path
    push r1
    call adv_gadget
    pop r1
    addi r0, 0
    ret
.endfunc
`

// spinEntry is the synthetic CVE the Groom attacker targets. It is a
// registry-shaped literal, not a registered benchmark entry, so the
// real CVE corpus stays untouched.
func spinEntry() *cvebench.Entry {
	return &cvebench.Entry{
		CVE:       "ADV-SPIN",
		Functions: []string{"adv_gadget", "adv_caller"},
		File:      "cve/adv_spin.asm",
		Vuln:      advSpinVuln,
		Fixed:     advSpinFixed,
	}
}

// SimCVEs are the real benchmark CVEs the Reinfect and Replay
// attackers race; the rollout applies them in this order.
var SimCVEs = []string{"CVE-2014-0196", "CVE-2016-5195", "CVE-2017-17806"}

// Sim hosts a patch server and a template cache shared by every
// attack run: the first run pays the cold kernel boot, each later run
// forks the cached template, so a 200-seed campaign stays cheap.
type Sim struct {
	srv     *patchserver.Server
	tc      *core.TemplateCache
	opts    core.Options
	entries map[string]*cvebench.Entry
}

// NewSim builds the shared fixture for the given kernel version.
func NewSim(version string) (*Sim, error) {
	entries := make(map[string]*cvebench.Entry, len(SimCVEs)+1)
	var list []*cvebench.Entry
	extra := make(map[string]string)
	for _, id := range SimCVEs {
		e, ok := cvebench.Get(id)
		if !ok {
			return nil, fmt.Errorf("adversary: unknown CVE %s", id)
		}
		entries[id] = e
		list = append(list, e)
		extra[e.File] = e.Vuln
	}
	spin := spinEntry()
	entries[spin.CVE] = spin
	list = append(list, spin)
	extra[spin.File] = spin.Vuln

	srv, err := patchserver.New(patchserver.WithTreeProvider(cvebench.TreeProviderFor(list...)))
	if err != nil {
		return nil, err
	}
	for _, e := range list {
		srv.RegisterPatch(e.SourcePatch())
	}
	return &Sim{
		srv: srv,
		tc:  core.NewTemplateCache(),
		opts: core.Options{
			Version:         version,
			ExtraFiles:      extra,
			ServerAddr:      srv.Addr(),
			CheckActiveness: true,
		},
		entries: entries,
	}, nil
}

// Close tears down the template cache and patch server.
func (s *Sim) Close() {
	s.tc.Close()
	s.srv.Close()
}

// newSystem forks a fresh introspected System for one attack run.
func (s *Sim) newSystem(ctx context.Context) (*core.System, error) {
	opts := s.opts
	opts.TemplateCache = s.tc
	// No background sweep: Run sweeps at deterministic points so the
	// same seed always classifies the same event stream.
	opts.Introspection = &introspect.Config{Capacity: 4096}
	return core.NewSystemCtx(ctx, opts)
}

// isPatchCmd reports whether an SMI event is a patch-processing SMI
// (as opposed to key exchange or introspection).
func isPatchCmd(c uint8) bool {
	return c == uint8(smmpatch.CmdProcessPackage) || c == uint8(smmpatch.CmdProcessBatch)
}

// flip records one tamper write so cleanup can restore the bytes.
type flip struct {
	addr uint64
	orig []byte
}

// readBlob reads one length-prefixed staging blob (the layout
// smmpatch.StageBlob writes).
func readBlob(m *mem.Physical, addr uint64) ([]byte, error) {
	var hdr [4]byte
	if err := m.Read(mem.PrivKernel, addr, hdr[:]); err != nil {
		return nil, err
	}
	n := binary.LittleEndian.Uint32(hdr[:])
	if n == 0 || n > 4<<20 {
		return nil, fmt.Errorf("adversary: implausible staged blob length %d", n)
	}
	data := make([]byte, n)
	if err := m.Read(mem.PrivKernel, addr+4, data); err != nil {
		return nil, err
	}
	return data, nil
}

// Run executes one seeded attack against a freshly forked System and
// reports the outcome. Everything the attacker does is scheduled off
// the introspection channel's synchronous tap, so the strike lands at
// the same event-stream position on every run of the same plan.
func (s *Sim) Run(ctx context.Context, plan Plan) (*Outcome, error) {
	sys, err := s.newSystem(ctx)
	if err != nil {
		return nil, err
	}
	defer sys.Close()

	out := &Outcome{Plan: plan}
	pristine := sys.Machine.Mem.Snapshot()
	det := sys.Introspection()
	ch := sys.IntrospectionEvents()

	var flips []flip
	switch plan.Kind {
	case Reinfect:
		flips = s.runReinfect(ctx, sys, plan, out)
	case Replay:
		s.runReplay(ctx, sys, plan, out)
	case Groom:
		s.runGroom(ctx, sys, plan, out)
	default:
		return nil, fmt.Errorf("adversary: unknown attack kind %d", plan.Kind)
	}
	ch.SetTap(nil)

	// Harvest before cleanup: cleanup's own restores hit kernel text
	// and would otherwise raise verdicts that could mask a missing
	// detection of the attack itself.
	det.Sweep()
	out.Verdicts = det.TakeVerdicts()
	out.Applied = sys.Applied()

	// Cleanup: undo tamper writes first (rollback assumes the patched
	// trampolines it recorded), then roll back every applied patch in
	// LIFO order, then require the text to frame-diff clean against
	// the pristine pre-attack snapshot.
	for i := len(flips) - 1; i >= 0; i-- {
		f := flips[i]
		if err := sys.Machine.Mem.Write(mem.PrivKernel, f.addr, f.orig); err != nil && out.CleanupErr == nil {
			out.CleanupErr = fmt.Errorf("adversary: restore tampered bytes: %w", err)
		}
	}
	applied := sys.Applied()
	for i := len(applied) - 1; i >= 0; i-- {
		if _, err := sys.Rollback(ctx, applied[i]); err != nil && out.CleanupErr == nil {
			out.CleanupErr = fmt.Errorf("adversary: rollback %s: %w", applied[i], err)
		}
	}
	det.Sweep()
	det.TakeVerdicts() // discard cleanup noise
	left, err := sys.Machine.Mem.DiffFramesIn(pristine, kernel.TextBase, kernel.TextRegionSize)
	out.TextClean = err == nil && len(left) == 0 && out.CleanupErr == nil
	return out, nil
}

// runReinfect rolls out the real CVE corpus one patch per SMI and, at
// the plan's strike SMI (clamped so at least one patch has landed),
// flips bytes at the entry of the most recently patched function —
// outside any SMI window, which is exactly what the event channel is
// there to catch even though the pipeline's own rebaseline absorbs
// the damage into the frame-diff snapshot.
func (s *Sim) runReinfect(ctx context.Context, sys *core.System, plan Plan, out *Outcome) []flip {
	strikeAt := plan.StrikeSMI + 1
	if strikeAt < 2 {
		strikeAt = 2
	}
	if strikeAt > len(SimCVEs) {
		strikeAt = len(SimCVEs)
	}

	var (
		mu     sync.Mutex
		flips  []flip
		enters int
	)
	sys.IntrospectionEvents().SetTap(func(ev introspect.Event) {
		if ev.Kind != introspect.KindSMIEnter || !isPatchCmd(ev.Cmd) {
			return
		}
		mu.Lock()
		defer mu.Unlock()
		enters++
		if enters != strikeAt {
			return
		}
		// Patches land in request order; by SMI #n, n-1 have been
		// applied. Re-infect the most recent one.
		target := s.entries[SimCVEs[enters-2]].Functions[0]
		addr, err := sys.Kernel.FuncAddr(target)
		if err != nil {
			return
		}
		orig := make([]byte, plan.Strikes+1)
		if err := sys.Machine.Mem.Read(mem.PrivKernel, addr, orig); err != nil {
			return
		}
		junk := make([]byte, len(orig))
		for i, b := range orig {
			junk[i] = b ^ 0xFF
		}
		if err := sys.Machine.Mem.Write(mem.PrivKernel, addr, junk); err != nil {
			return
		}
		flips = append(flips, flip{addr: addr, orig: orig})
		out.Struck++
	})

	_, err := sys.ApplyAll(ctx, SimCVEs,
		core.WithBatchSize(1), core.WithFetchWorkers(1), core.WithSyncFetch())
	out.ApplyErr = err

	mu.Lock()
	defer mu.Unlock()
	return flips
}

// runReplay captures the stale artifact during a legitimate rollout
// and re-triggers the patch SMI with it afterwards — an unannounced
// patch SMI carrying a stale one-shot session key. The kernel-level
// attacker can read the enclave key from the RW mailbox at the plan's
// capture SMI, but the ciphertext package sits in mem_W, which is
// write-only below SMM — so the replay pairs the captured key with
// the package bytes still resident in staging from the last patch.
// The handler refuses either way; the detector must still call the
// SMI out.
func (s *Sim) runReplay(ctx context.Context, sys *core.System, plan Plan, out *Outcome) {
	captureAt := plan.StrikeSMI
	if captureAt < 1 {
		captureAt = 1
	}
	if captureAt > len(SimCVEs) {
		captureAt = len(SimCVEs)
	}

	var (
		mu          sync.Mutex
		enters      int
		stalePub    []byte
		captureErrs []error
	)
	res := sys.Kernel.Res
	m := sys.Machine.Mem
	sys.IntrospectionEvents().SetTap(func(ev introspect.Event) {
		if ev.Kind != introspect.KindSMIEnter || ev.Cmd != uint8(smmpatch.CmdProcessPackage) {
			return
		}
		mu.Lock()
		defer mu.Unlock()
		enters++
		if enters != captureAt {
			return
		}
		// The SMI has not run yet: the key the helper just staged is
		// still sitting in the RW mailbox, readable by any
		// kernel-level attacker.
		pub, err := readBlob(m, smmpatch.EnclavePubAddr(res))
		if err != nil {
			captureErrs = append(captureErrs, err)
			return
		}
		stalePub = pub
	})

	_, err := sys.ApplyAll(ctx, SimCVEs,
		core.WithBatchSize(1), core.WithFetchWorkers(1), core.WithSyncFetch())
	out.ApplyErr = err
	sys.IntrospectionEvents().SetTap(nil)

	mu.Lock()
	pub := stalePub
	if out.ApplyErr == nil && len(captureErrs) > 0 {
		out.ApplyErr = captureErrs[0]
	}
	mu.Unlock()
	if pub == nil {
		return
	}
	// Replaying inside the tap would nest Trigger under a paused
	// machine; the stale artifact does not expire, so the attacker
	// replays after the rollout instead.
	for i := 0; i < plan.Strikes; i++ {
		if err := smmpatch.StageBlob(m, mem.PrivKernel, smmpatch.EnclavePubAddr(res), pub); err != nil {
			break
		}
		// The handler rejects the stale session key; the SMI still
		// happened, and no ExpectSMI announced it.
		_ = sys.SMM.Trigger(smmpatch.CmdProcessPackage, 0)
		out.Struck++
	}
}

// runGroom parks vCPU 0 inside the spin gadget so every delivery SMI
// refuses with ErrTargetActive, releases the gadget once the refusal
// streak reaches the detector's threshold, and lets the patch land.
func (s *Sim) runGroom(ctx context.Context, sys *core.System, plan Plan, out *Outcome) {
	k := sys.Kernel
	threshold := introspect.DefaultGroomThreshold
	fail := func(err error) {
		if out.ApplyErr == nil {
			out.ApplyErr = err
		}
	}
	if err := k.WriteGlobal("adv_release", 0); err != nil {
		fail(err)
		return
	}
	if err := k.WriteGlobal("adv_entered", 0); err != nil {
		fail(err)
		return
	}
	done := make(chan error, 1)
	go func() {
		// Parked across the whole starved rollout: size the step
		// budget to the wait, not DefaultMaxSteps.
		_, err := k.CallSteps(0, "adv_caller", 1<<30, 41)
		done <- err
	}()
	deadline := time.Now().Add(10 * time.Second)
	for {
		v, err := k.ReadGlobal("adv_entered")
		if err != nil {
			fail(err)
			return
		}
		if v == 1 {
			break
		}
		if time.Now().After(deadline) {
			fail(fmt.Errorf("adversary: vCPU never entered spin gadget"))
			return
		}
		time.Sleep(100 * time.Microsecond)
	}

	// Release from the tap at the threshold'th refused patch SMI:
	// the detector owes its verdict by then, and the next retry can
	// find a quiescent target.
	var exits atomic.Int64
	released := make(chan struct{})
	sys.IntrospectionEvents().SetTap(func(ev introspect.Event) {
		if ev.Kind != introspect.KindSMIExit || !isPatchCmd(ev.Cmd) {
			return
		}
		if exits.Add(1) != int64(threshold) {
			return
		}
		// Data write, not text: no event, no deadlock. The parked
		// vCPU leaves the gadget as soon as the machine resumes.
		if err := k.WriteGlobal("adv_release", 1); err == nil {
			close(released)
		}
	})

	rep, err := sys.ApplyAll(ctx, []string{spinEntry().CVE},
		core.WithMaxRetries(6), core.WithFetchWorkers(1), core.WithSyncFetch())
	out.ApplyErr = err
	sys.IntrospectionEvents().SetTap(nil)
	if rep != nil {
		out.Starved = rep.Retries >= threshold
	}

	// Make sure the parked call is gone before cleanup rolls back.
	select {
	case <-released:
	default:
		_ = k.WriteGlobal("adv_release", 1)
	}
	select {
	case callErr := <-done:
		if callErr != nil && out.ApplyErr == nil {
			out.ApplyErr = fmt.Errorf("adversary: parked call: %w", callErr)
		}
	case <-time.After(10 * time.Second):
		fail(fmt.Errorf("adversary: parked vCPU never released"))
	}
}
