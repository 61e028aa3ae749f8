package smmpatch

import (
	"errors"
	"testing"
	"time"

	"kshot/internal/isa"
	"kshot/internal/kcrypto"
	"kshot/internal/kernel"
	"kshot/internal/machine"
	"kshot/internal/mem"
	"kshot/internal/patch"
	"kshot/internal/smm"
	"kshot/internal/timing"
)

// spinSrc defines a patch target that parks inside itself until
// released via a global, letting the test hold a vCPU inside the
// function deterministically.
const spinVuln = `
.global gadget_entered 8
.global gadget_release 8
.func gadget              ; (x) -> x+1, waits for release first
    movi r2, 1
    storeg gadget_entered, r2
.wait:
    loadg r2, gadget_release
    cmpi r2, 0
    jz .wait
    mov r0, r1
    addi r0, 1
    ret
.endfunc
.func gadget_caller       ; calls gadget so its frame holds a return address
    push r1
    call gadget
    pop r1
    ret
.endfunc
`

const spinFixed = `
.global gadget_entered 8
.global gadget_release 8
.func gadget              ; patched: -> x+2
    movi r2, 1
    storeg gadget_entered, r2
.wait:
    loadg r2, gadget_release
    cmpi r2, 0
    jz .wait
    mov r0, r1
    addi r0, 2
    ret
.endfunc
.func gadget_caller       ; patched: normalizes the error code path
    push r1
    call gadget
    pop r1
    addi r0, 0
    ret
.endfunc
`

// activeRig builds a rig with the activeness check enabled.
func newActiveRig(t *testing.T) *rig {
	t.Helper()
	st, err := kernel.BaseTree("4.4")
	if err != nil {
		t.Fatal(err)
	}
	st.AddFile("cve/spin.asm", spinVuln)
	preImg, preUnit, err := st.Build()
	if err != nil {
		t.Fatal(err)
	}
	post := st.Clone()
	if err := post.Apply(kernel.SourcePatch{ID: "SPIN", Files: map[string]string{"cve/spin.asm": spinFixed}}); err != nil {
		t.Fatal(err)
	}
	postImg, postUnit, err := post.Build()
	if err != nil {
		t.Fatal(err)
	}
	m, err := machine.New(machine.Config{NumVCPUs: 2})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(m.Stop)
	k, err := kernel.Boot(m, preImg, st.Config())
	if err != nil {
		t.Fatal(err)
	}
	ctrl, err := smm.NewController(m, kernel.SMRAMBase, &timing.Clock{}, timing.Calibrated())
	if err != nil {
		t.Fatal(err)
	}
	h, err := New(Config{
		Reserved:        k.Res,
		KernelVersion:   "4.4",
		CheckActiveness: true,
		TextBase:        kernel.TextBase,
		TextSize:        kernel.TextRegionSize,
		SessionRoot:     testRoot,
	})
	if err != nil {
		t.Fatal(err)
	}
	if err := h.Register(ctrl); err != nil {
		t.Fatal(err)
	}
	if err := ctrl.Lock(); err != nil {
		t.Fatal(err)
	}
	if err := ctrl.Trigger(CmdKeyExchange, 0); err != nil {
		t.Fatal(err)
	}
	return &rig{
		m: m, k: k, ctrl: ctrl, h: h,
		preImg:  patch.ImagePair{Img: preImg, Unit: preUnit},
		postImg: patch.ImagePair{Img: postImg, Unit: postUnit},
	}
}

// park launches fn on vCPU 0 and blocks until it has signalled entry.
func park(t *testing.T, r *rig, fn string) chan error {
	t.Helper()
	if err := r.k.WriteGlobal("gadget_release", 0); err != nil {
		t.Fatal(err)
	}
	if err := r.k.WriteGlobal("gadget_entered", 0); err != nil {
		t.Fatal(err)
	}
	done := make(chan error, 1)
	go func() {
		_, err := r.k.Call(0, fn, 41)
		done <- err
	}()
	deadline := time.Now().Add(5 * time.Second)
	for {
		v, err := r.k.ReadGlobal("gadget_entered")
		if err != nil {
			t.Fatal(err)
		}
		if v == 1 {
			return done
		}
		if time.Now().After(deadline) {
			t.Fatal("vCPU never entered gadget")
		}
		time.Sleep(100 * time.Microsecond)
	}
}

// release lets the parked call finish.
func release(t *testing.T, r *rig, done chan error) {
	t.Helper()
	if err := r.k.WriteGlobal("gadget_release", 1); err != nil {
		t.Fatal(err)
	}
	if err := <-done; err != nil {
		t.Fatalf("parked call: %v", err)
	}
}

func TestActivenessBlocksLiveTarget(t *testing.T) {
	r := newActiveRig(t)
	done := park(t, r, "gadget")

	// Patch attempt while a vCPU sits inside gadget: refused, nothing
	// modified.
	r.sealPackage(t, r.wirePatch(t, "SPIN"))
	err := r.ctrl.Trigger(CmdProcessPackage, 0)
	if !errors.Is(err, ErrTargetActive) {
		t.Fatalf("got %v, want ErrTargetActive", err)
	}
	if got := r.h.Applied(); len(got) != 0 {
		t.Errorf("journal not empty after refused patch: %v", got)
	}

	release(t, r, done)

	// Retry on a quiescent machine: accepted (fresh key exchange not
	// needed — the handler rekeyed on its way out).
	r.sealPackage(t, r.wirePatch(t, "SPIN"))
	if err := r.ctrl.Trigger(CmdProcessPackage, 0); err != nil {
		t.Fatalf("retry: %v", err)
	}
	// Patched behaviour visible.
	if err := r.k.WriteGlobal("gadget_release", 1); err != nil {
		t.Fatal(err)
	}
	v, err := r.k.Call(0, "gadget", 41)
	if err != nil || v != 43 {
		t.Errorf("patched gadget = %d, %v; want 43", v, err)
	}
}

func TestActivenessCatchesReturnAddress(t *testing.T) {
	r := newActiveRig(t)
	// Park inside gadget via gadget_caller: the caller's stack frame
	// holds a return address into gadget_caller and RIP is inside
	// gadget. Patch only gadget_caller: RIP check misses it, the stack
	// scan must catch the return address.
	done := park(t, r, "gadget_caller")

	bp, err := patch.Build("SPIN", "4.4", r.preImg, r.postImg)
	if err != nil {
		t.Fatal(err)
	}
	// Keep only the gadget_caller function patch.
	var only []patch.FuncPatch
	for _, f := range bp.Funcs {
		if f.Name == "gadget_caller" {
			only = append(only, f)
		}
	}
	if len(only) == 0 {
		t.Fatal("fix does not touch gadget_caller")
	}
	bp.Funcs = only
	bp.Globals = nil
	memX, data := r.h.Cursors()
	p, err := patch.Prepare(bp, r.preImg.Img.Symbols, r.h.Placement(), memX, data)
	if err != nil {
		t.Fatal(err)
	}
	wire, err := patch.Marshal(p, patch.OpPatch, kcrypto.HashSHA256)
	if err != nil {
		t.Fatal(err)
	}
	r.sealPackage(t, wire)
	err = r.ctrl.Trigger(CmdProcessPackage, 0)
	if !errors.Is(err, ErrTargetActive) {
		t.Fatalf("got %v, want ErrTargetActive (stack scan)", err)
	}
	release(t, r, done)
}

func TestActivenessIdleMachinePasses(t *testing.T) {
	r := newActiveRig(t)
	if err := r.k.WriteGlobal("gadget_release", 1); err != nil {
		t.Fatal(err)
	}
	r.sealPackage(t, r.wirePatch(t, "SPIN"))
	if err := r.ctrl.Trigger(CmdProcessPackage, 0); err != nil {
		t.Fatalf("idle-machine patch refused: %v", err)
	}
}

func TestWatchTextDetectsForeignModification(t *testing.T) {
	r := newActiveRig(t)
	if err := r.ctrl.Trigger(CmdWatchText, 0); err != nil {
		t.Fatal(err)
	}
	// Clean sweep first.
	if err := r.ctrl.Trigger(CmdIntrospect, 0); err != nil {
		t.Fatal(err)
	}
	if r.h.TamperEvents() != 0 {
		t.Fatal("false positive before tampering")
	}

	// KShot's own patch does not trip the watch (baseline refreshes).
	if err := r.k.WriteGlobal("gadget_release", 1); err != nil {
		t.Fatal(err)
	}
	r.sealPackage(t, r.wirePatch(t, "SPIN"))
	if err := r.ctrl.Trigger(CmdProcessPackage, 0); err != nil {
		t.Fatal(err)
	}
	if err := r.ctrl.Trigger(CmdIntrospect, 0); err != nil {
		t.Fatal(err)
	}
	if r.h.TamperEvents() != 0 {
		t.Error("own patch flagged as tampering")
	}

	// A rootkit patches an unrelated kernel function (no KShot patch
	// covers it): the text watch must notice.
	sym, ok := r.preImg.Img.Symbols.Lookup("sys_compute")
	if !ok {
		t.Fatal("no sys_compute")
	}
	if err := r.m.Mem.Write(mem.PrivKernel, sym.Addr+6, []byte{byte(isa.OpNop)}); err != nil {
		t.Fatal(err)
	}
	if err := r.ctrl.Trigger(CmdIntrospect, 0); err != nil {
		t.Fatal(err)
	}
	if r.h.TamperEvents() != 1 {
		t.Errorf("foreign text modification missed (events=%d)", r.h.TamperEvents())
	}
}

func TestWatchTextUnconfigured(t *testing.T) {
	r := newRig(t) // rig without TextBase/TextSize
	if err := r.ctrl.Trigger(CmdWatchText, 0); err == nil {
		t.Error("unconfigured text watch accepted")
	}
}
