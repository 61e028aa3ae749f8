package smmpatch

import (
	"errors"
	"math/rand"
	"testing"

	"kshot/internal/isa"
	"kshot/internal/kcrypto"
	"kshot/internal/kernel"
	"kshot/internal/machine"
	"kshot/internal/mem"
	"kshot/internal/patch"
	"kshot/internal/smm"
	"kshot/internal/timing"
)

type detRand struct{ r *rand.Rand }

func (d *detRand) Read(p []byte) (int, error) {
	for i := range p {
		p[i] = byte(d.r.Intn(256))
	}
	return len(p), nil
}

// rig is a minimal SMM patching test rig without enclave or server:
// the test plays both roles, producing packages directly.
type rig struct {
	m       *machine.Machine
	k       *kernel.Kernel
	ctrl    *smm.Controller
	h       *Handler
	preImg  patch.ImagePair
	postImg patch.ImagePair
}

const rigVuln = `
.global gadget_canary 8
.func gadget              ; (x) -> x+1 (vulnerable: also 0xdead -> 99)
    cmpi r1, 57005
    jnz .n
    movi r0, 99
    ret
.n:
    mov r0, r1
    addi r0, 1
    ret
.endfunc
`

const rigFixed = `
.global gadget_canary 8
.func gadget
    mov r0, r1
    addi r0, 1
    ret
.endfunc
`

func newRig(t *testing.T) *rig {
	t.Helper()
	st, err := kernel.BaseTree("4.4")
	if err != nil {
		t.Fatal(err)
	}
	st.AddFile("cve/gadget.asm", rigVuln)
	preImg, preUnit, err := st.Build()
	if err != nil {
		t.Fatal(err)
	}
	post := st.Clone()
	if err := post.Apply(kernel.SourcePatch{ID: "RIG", Files: map[string]string{"cve/gadget.asm": rigFixed}}); err != nil {
		t.Fatal(err)
	}
	postImg, postUnit, err := post.Build()
	if err != nil {
		t.Fatal(err)
	}

	m, err := machine.New(machine.Config{NumVCPUs: 1})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(m.Stop)
	k, err := kernel.Boot(m, preImg, st.Config(), mem.ReservedLayout{})
	if err != nil {
		t.Fatal(err)
	}
	ctrl, err := smm.NewController(m, kernel.SMRAMBase, &timing.Clock{}, timing.Calibrated())
	if err != nil {
		t.Fatal(err)
	}
	h, err := New(Config{
		Reserved:      k.Res,
		KernelVersion: "4.4",
		Rand:          &detRand{r: rand.New(rand.NewSource(7))},
		SessionRoot:   testRoot,
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

// sealPackage plays the enclave role under testRoot: read the
// published SMM nonce, draw a salt, derive the session key, encrypt,
// and stage salt + ciphertext.
func (r *rig) sealPackage(t *testing.T, wire []byte) {
	t.Helper()
	r.sealPackageUnder(t, testRoot, wire)
}

// sealPackageUnder is sealPackage with an explicit channel root.
func (r *rig) sealPackageUnder(t *testing.T, root, wire []byte) {
	t.Helper()
	nonce, err := ReadSMMPub(r.m.Mem, mem.PrivKernel, r.k.Res)
	if err != nil {
		t.Fatal(err)
	}
	if len(nonce) != 32 {
		t.Fatalf("published nonce is %d bytes, want 32", len(nonce))
	}
	salt := make([]byte, 32)
	if _, err := (&detRand{r: rand.New(rand.NewSource(11))}).Read(salt); err != nil {
		t.Fatal(err)
	}
	sess, err := kcrypto.NewSession(kcrypto.DeriveKey(root, nonce, salt), &detRand{r: rand.New(rand.NewSource(12))})
	if err != nil {
		t.Fatal(err)
	}
	ct, err := sess.Encrypt(wire)
	if err != nil {
		t.Fatal(err)
	}
	if err := StageBlob(r.m.Mem, mem.PrivKernel, EnclavePubAddr(r.k.Res), salt); err != nil {
		t.Fatal(err)
	}
	if err := StageBlob(r.m.Mem, mem.PrivKernel, PackageAddr(r.k.Res), ct); err != nil {
		t.Fatal(err)
	}
}

func (r *rig) preparedPatch(t *testing.T, id string) *patch.Prepared {
	t.Helper()
	bp, err := patch.Build(id, "4.4", r.preImg, r.postImg)
	if err != nil {
		t.Fatal(err)
	}
	memX, data := r.h.Cursors()
	p, err := patch.Prepare(bp, r.preImg.Img.Symbols, r.h.Placement(), memX, data)
	if err != nil {
		t.Fatal(err)
	}
	return p
}

func (r *rig) wirePatch(t *testing.T, id string) []byte {
	t.Helper()
	wire, err := patch.Marshal(r.preparedPatch(t, id), patch.OpPatch, kcrypto.HashSHA256)
	if err != nil {
		t.Fatal(err)
	}
	return wire
}

func TestHandlerAppliesPatch(t *testing.T) {
	r := newRig(t)
	if v, err := r.k.Call(0, "gadget", 0xdead); err != nil || v != 99 {
		t.Fatalf("pre-patch gadget = %d, %v", v, err)
	}
	r.sealPackage(t, r.wirePatch(t, "RIG-1"))
	if err := r.ctrl.Trigger(CmdProcessPackage, 0); err != nil {
		t.Fatalf("process: %v", err)
	}
	if v, err := r.k.Call(0, "gadget", 0xdead); err != nil || v != 0xdead+1 {
		t.Fatalf("post-patch gadget = %d, %v", v, err)
	}
	code, seq, digest, err := ReadStatus(r.m.Mem, mem.PrivKernel, r.k.Res)
	if err != nil || code != StatusPatched || seq == 0 || len(digest) != 32 {
		t.Errorf("status = %d seq %d, %v", code, seq, err)
	}
	bd := r.h.LastBreakdown()
	if bd.Decrypt <= 0 || bd.Verify <= 0 || bd.Apply <= 0 || bd.KeyGen <= 0 {
		t.Errorf("breakdown = %+v", bd)
	}
}

func TestReplayRejected(t *testing.T) {
	r := newRig(t)
	wire := r.wirePatch(t, "RIG-1")
	r.sealPackage(t, wire)

	// Capture the staged ciphertext the way a MITM on the shared
	// memory channel would (reading via SMM is the test's shortcut;
	// the attacker would capture it at write time).
	lenBuf := make([]byte, 4)
	if err := r.m.Mem.Read(mem.PrivSMM, PackageAddr(r.k.Res), lenBuf); err != nil {
		t.Fatal(err)
	}
	n := int(uint32(lenBuf[0]) | uint32(lenBuf[1])<<8 | uint32(lenBuf[2])<<16 | uint32(lenBuf[3])<<24)
	captured := make([]byte, n)
	if err := r.m.Mem.Read(mem.PrivSMM, PackageAddr(r.k.Res)+4, captured); err != nil {
		t.Fatal(err)
	}
	capturedSalt := make([]byte, 36)
	if err := r.m.Mem.Read(mem.PrivSMM, EnclavePubAddr(r.k.Res), capturedSalt); err != nil {
		t.Fatal(err)
	}

	if err := r.ctrl.Trigger(CmdProcessPackage, 0); err != nil {
		t.Fatal(err)
	}
	// Roll the patch back so a successful replay would be visible.
	rbWire, err := patch.MarshalRollback("RIG-1", "4.4")
	if err != nil {
		t.Fatal(err)
	}
	r.sealPackage(t, rbWire)
	if err := r.ctrl.Trigger(CmdProcessPackage, 0); err != nil {
		t.Fatal(err)
	}

	// Replay the captured salt + ciphertext. The SMM nonce has
	// rotated, so the session key differs and decryption yields
	// garbage that fails validation.
	if err := r.m.Mem.Write(mem.PrivKernel, EnclavePubAddr(r.k.Res), capturedSalt); err != nil {
		t.Fatal(err)
	}
	if err := StageBlob(r.m.Mem, mem.PrivKernel, PackageAddr(r.k.Res), captured); err != nil {
		t.Fatal(err)
	}
	if err := r.ctrl.Trigger(CmdProcessPackage, 0); err == nil {
		t.Fatal("replayed package accepted")
	}
	// And the kernel stayed unpatched.
	if v, _ := r.k.Call(0, "gadget", 0xdead); v != 99 {
		t.Error("replay had an effect")
	}
}

func TestTamperedPackageRejected(t *testing.T) {
	r := newRig(t)
	wire := r.wirePatch(t, "RIG-1")
	r.sealPackage(t, wire)
	// Kernel-privilege attacker flips a staged byte (mem_W is
	// kernel-writable by design).
	if err := r.m.Mem.Write(mem.PrivKernel, PackageAddr(r.k.Res)+40, []byte{0xFF}); err != nil {
		t.Fatal(err)
	}
	err := r.ctrl.Trigger(CmdProcessPackage, 0)
	if err == nil {
		t.Fatal("tampered package accepted")
	}
	if v, _ := r.k.Call(0, "gadget", 0xdead); v != 99 {
		t.Error("tampered package had an effect")
	}
	code, _, _, _ := ReadStatus(r.m.Mem, mem.PrivKernel, r.k.Res)
	if code != StatusError {
		t.Errorf("status = %d, want StatusError", code)
	}
}

func TestVersionSkewRejected(t *testing.T) {
	r := newRig(t)
	p := r.preparedPatch(t, "RIG-1")
	p.KernelVersion = "3.14"
	wire, err := patch.Marshal(p, patch.OpPatch, kcrypto.HashSHA256)
	if err != nil {
		t.Fatal(err)
	}
	r.sealPackage(t, wire)
	err = r.ctrl.Trigger(CmdProcessPackage, 0)
	if !errors.Is(err, ErrVersionSkew) {
		t.Fatalf("got %v, want ErrVersionSkew", err)
	}
}

func TestNoSessionKey(t *testing.T) {
	// Without a bootstrap key exchange, processing fails. Build the
	// rig manually to skip the keyex.
	st, err := kernel.BaseTree("4.4")
	if err != nil {
		t.Fatal(err)
	}
	img, _, err := st.Build()
	if err != nil {
		t.Fatal(err)
	}
	m, err := machine.New(machine.Config{NumVCPUs: 1})
	if err != nil {
		t.Fatal(err)
	}
	defer m.Stop()
	k, err := kernel.Boot(m, img, st.Config(), mem.ReservedLayout{})
	if err != nil {
		t.Fatal(err)
	}
	ctrl, err := smm.NewController(m, kernel.SMRAMBase, nil, timing.Calibrated())
	if err != nil {
		t.Fatal(err)
	}
	h, err := New(Config{Reserved: k.Res, KernelVersion: "4.4", SessionRoot: testRoot})
	if err != nil {
		t.Fatal(err)
	}
	if err := h.Register(ctrl); err != nil {
		t.Fatal(err)
	}
	if h.HasKey() {
		t.Error("key present before exchange")
	}
	err = ctrl.Trigger(CmdProcessPackage, 0)
	if !errors.Is(err, ErrNoSession) {
		t.Fatalf("got %v, want ErrNoSession", err)
	}
}

func TestMisplacedPayloadRejected(t *testing.T) {
	r := newRig(t)
	p := r.preparedPatch(t, "RIG-1")
	// Point the payload outside mem_X: at the kernel text itself.
	ksym, _ := r.preImg.Img.Symbols.Lookup("sys_compute")
	p.Funcs[0].PAddr = ksym.Addr
	wire, err := patch.Marshal(p, patch.OpPatch, kcrypto.HashSHA256)
	if err != nil {
		t.Fatal(err)
	}
	r.sealPackage(t, wire)
	if err := r.ctrl.Trigger(CmdProcessPackage, 0); err == nil {
		t.Fatal("out-of-area payload accepted")
	}
	// Kernel text untouched.
	if v, err := r.k.Call(0, "sys_compute", 10, 4); err != nil || v != (10+4)*(10-4)+10 {
		t.Errorf("sys_compute corrupted: %d, %v", v, err)
	}
}

func TestRollbackOrderEnforced(t *testing.T) {
	r := newRig(t)
	r.sealPackage(t, r.wirePatch(t, "RIG-1"))
	if err := r.ctrl.Trigger(CmdProcessPackage, 0); err != nil {
		t.Fatal(err)
	}
	wire, err := patch.MarshalRollback("RIG-OTHER", "4.4")
	if err != nil {
		t.Fatal(err)
	}
	r.sealPackage(t, wire)
	err = r.ctrl.Trigger(CmdProcessPackage, 0)
	if !errors.Is(err, ErrRollbackOrder) {
		t.Fatalf("got %v, want ErrRollbackOrder", err)
	}
}

func TestRollbackVerifiedByFrameDiff(t *testing.T) {
	// Frame-granular rollback verification: a COW snapshot taken
	// before patching must show dirty kernel.text frames while the
	// patch is live and zero dirty frames after rollback — the whole
	// 4 MB segment checked, not just the patched function.
	r := newRig(t)
	text := r.m.Mem.Region(kernel.RegionText)
	if text == nil {
		t.Fatal("kernel.text not mapped")
	}
	snap := r.m.Mem.Snapshot()

	r.sealPackage(t, r.wirePatch(t, "RIG-1"))
	if err := r.ctrl.Trigger(CmdProcessPackage, 0); err != nil {
		t.Fatal(err)
	}
	dirty, err := r.m.Mem.DiffFramesIn(snap, text.Base, text.Size)
	if err != nil {
		t.Fatal(err)
	}
	if len(dirty) == 0 {
		t.Fatal("applied patch left no dirty text frames")
	}

	wire, err := patch.MarshalRollback("RIG-1", "4.4")
	if err != nil {
		t.Fatal(err)
	}
	r.sealPackage(t, wire)
	if err := r.ctrl.Trigger(CmdProcessPackage, 0); err != nil {
		t.Fatal(err)
	}
	dirty, err = r.m.Mem.DiffFramesIn(snap, text.Base, text.Size)
	if err != nil {
		t.Fatal(err)
	}
	if len(dirty) != 0 {
		addrs := make([]uint64, len(dirty))
		for i, idx := range dirty {
			addrs[i] = mem.FrameAddr(idx)
		}
		t.Fatalf("rollback left dirty text frames at %#x", addrs)
	}
	if v, err := r.k.Call(0, "gadget", 0xdead); err != nil || v != 99 {
		t.Fatalf("post-rollback gadget = %d, %v (want original vulnerable behavior)", v, err)
	}
}

func TestIntrospectRepairsTrampoline(t *testing.T) {
	r := newRig(t)
	r.sealPackage(t, r.wirePatch(t, "RIG-1"))
	if err := r.ctrl.Trigger(CmdProcessPackage, 0); err != nil {
		t.Fatal(err)
	}
	sym, _ := r.preImg.Img.Symbols.Lookup("gadget")
	// Rootkit overwrites the trampoline with a nop sled.
	nops := make([]byte, 5)
	for i := range nops {
		nops[i] = byte(isa.OpNop)
	}
	if err := r.m.Mem.Write(mem.PrivKernel, sym.Addr+5, nops); err != nil {
		t.Fatal(err)
	}
	if err := r.ctrl.Trigger(CmdIntrospect, 0); err != nil {
		t.Fatal(err)
	}
	if r.h.TamperEvents() != 1 {
		t.Errorf("tamper events = %d", r.h.TamperEvents())
	}
	if v, _ := r.k.Call(0, "gadget", 0xdead); v != 0xdead+1 {
		t.Error("trampoline not repaired")
	}
	// Clean pass afterwards.
	if err := r.ctrl.Trigger(CmdIntrospect, 0); err != nil {
		t.Fatal(err)
	}
	if r.h.TamperEvents() != 1 {
		t.Error("clean pass counted as tampering")
	}
}

func TestHandlerConfigValidation(t *testing.T) {
	if _, err := New(Config{}); err == nil {
		t.Error("nil reserved accepted")
	}
}

func TestPartialFailureUndone(t *testing.T) {
	// A package that mutates a good global, then faults on a second
	// write must leave the kernel exactly as it was: transactional
	// apply.
	r := newRig(t)
	gSym, ok := r.preImg.Img.Symbols.Lookup("gadget_canary")
	if !ok {
		t.Fatal("no gadget_canary")
	}
	if err := r.m.Mem.WriteU64(mem.PrivKernel, gSym.Addr, 0x1111); err != nil {
		t.Fatal(err)
	}

	p := r.preparedPatch(t, "RIG-PARTIAL")
	p.Globals = []patch.PreparedGlobal{
		{Name: "gadget_canary", Addr: gSym.Addr, Init: []byte{0x22, 0, 0, 0, 0, 0, 0, 0}},
		// Unmapped address: the write faults after the first global
		// was already mutated.
		{Name: "bogus", Addr: 0x1, Init: []byte{1}},
	}
	wire, err := patch.Marshal(p, patch.OpPatch, kcrypto.HashSHA256)
	if err != nil {
		t.Fatal(err)
	}
	r.sealPackage(t, wire)
	if err := r.ctrl.Trigger(CmdProcessPackage, 0); err == nil {
		t.Fatal("faulting package accepted")
	}
	// First global restored, function behaviour unchanged, journal
	// empty.
	v, err := r.m.Mem.ReadU64(mem.PrivKernel, gSym.Addr)
	if err != nil || v != 0x1111 {
		t.Errorf("global not restored: %#x, %v", v, err)
	}
	if out, _ := r.k.Call(0, "gadget", 0xdead); out != 99 {
		t.Error("partial apply changed function behaviour")
	}
	if got := r.h.Applied(); len(got) != 0 {
		t.Errorf("journal = %v after failed apply", got)
	}
	// The handler remains usable: a clean patch goes through.
	r.sealPackage(t, r.wirePatch(t, "RIG-CLEAN"))
	if err := r.ctrl.Trigger(CmdProcessPackage, 0); err != nil {
		t.Fatalf("clean patch after failure: %v", err)
	}
}
