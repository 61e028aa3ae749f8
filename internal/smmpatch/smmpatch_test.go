package smmpatch

import (
	"errors"
	"math/rand"
	"testing"

	"kshot/internal/faultinject"
	"kshot/internal/isa"
	"kshot/internal/kcrypto"
	"kshot/internal/kernel"
	"kshot/internal/machine"
	"kshot/internal/mem"
	"kshot/internal/obs"
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

// newRig boots the rig kernel with a locked controller whose handler
// has run its bootstrap key exchange. Each register func adds a test
// command to the controller before the lock.
func newRig(t *testing.T, register ...func(*smm.Controller, *Handler)) *rig {
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
	for _, reg := range register {
		reg(ctrl, h)
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

// sealPackage stages wire, sealed under testRoot, as a one-member
// directory.
func (r *rig) sealPackage(t *testing.T, wire []byte) {
	t.Helper()
	r.stage(t, r.sealMember(t, testRoot, wire))
}

// sealPackageUnder is sealPackage with an explicit channel root.
func (r *rig) sealPackageUnder(t *testing.T, root, wire []byte) {
	t.Helper()
	r.stage(t, r.sealMember(t, root, wire))
}

// sealMember plays the enclave role: read the published SMM nonce,
// draw a salt, derive the session key under root, and encrypt.
func (r *rig) sealMember(t *testing.T, root, wire []byte) BatchMember {
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
	key := kcrypto.DeriveKey(root, nonce, salt)
	sess, err := kcrypto.NewSession(key[:], &detRand{r: rand.New(rand.NewSource(12))})
	if err != nil {
		t.Fatal(err)
	}
	ct, err := sess.Seal(nil, wire)
	if err != nil {
		t.Fatal(err)
	}
	return BatchMember{EnclavePub: salt, Ciphertext: ct}
}

// stage plays the helper: write the directory into mem_W at kernel
// privilege.
func (r *rig) stage(t *testing.T, members ...BatchMember) {
	t.Helper()
	if err := StageBatch(r.m.Mem, mem.PrivKernel, r.k.Res, members); err != nil {
		t.Fatal(err)
	}
}

// process raises the package SMI over a one-member directory and
// returns the SMI's error, or else the member's.
func (r *rig) process(t *testing.T) error {
	t.Helper()
	if err := r.ctrl.Trigger(CmdProcessPackage, 0); err != nil {
		return err
	}
	outs := r.h.Outcomes()
	if len(outs) != 1 {
		t.Fatalf("%d outcomes for a one-member directory", len(outs))
	}
	return outs[0].Err
}

// codes reads the per-member codes and the summary status code the
// last package SMI published.
func (r *rig) codes(t *testing.T) ([]uint32, uint32) {
	t.Helper()
	codes, err := ReadMemberCodes(r.m.Mem, mem.PrivKernel, r.k.Res)
	if err != nil {
		t.Fatal(err)
	}
	summary, err := ReadStatusRecord(r.m.Mem, mem.PrivKernel, r.k.Res)
	if err != nil {
		t.Fatal(err)
	}
	return codes, summary.Code
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
	wire, err := patch.AppendMarshal(nil, r.preparedPatch(t, id), patch.OpPatch, kcrypto.HashSHA256)
	if err != nil {
		t.Fatal(err)
	}
	return wire
}

// rollbackWire marshals the rollback command for patch id, as the
// enclave does: a package with no entries that names the patch.
func rollbackWire(id string) ([]byte, error) {
	return patch.AppendMarshal(nil, &patch.Prepared{ID: id, KernelVersion: "4.4"}, patch.OpRollback, kcrypto.HashSHA256)
}

func TestHandlerAppliesPatch(t *testing.T) {
	r := newRig(t)
	if v, err := r.k.Call(0, "gadget", 0xdead); err != nil || v != 99 {
		t.Fatalf("pre-patch gadget = %d, %v", v, err)
	}
	r.sealPackage(t, r.wirePatch(t, "RIG-1"))
	if err := r.process(t); err != nil {
		t.Fatalf("process: %v", err)
	}
	if v, err := r.k.Call(0, "gadget", 0xdead); err != nil || v != 0xdead+1 {
		t.Fatalf("post-patch gadget = %d, %v", v, err)
	}
	st, err := ReadStatusRecord(r.m.Mem, mem.PrivKernel, r.k.Res)
	if err != nil || st.Code != StatusBatchDone || st.Seq == 0 || len(st.Digest) != 32 {
		t.Errorf("status = %d seq %d, %v", st.Code, st.Seq, err)
	}
	if codes, _ := r.codes(t); len(codes) != 1 || codes[0] != StatusPatched {
		t.Errorf("member codes = %v, want [StatusPatched]", codes)
	}
	bd := r.h.Outcomes()[0].Breakdown
	if bd.Decrypt <= 0 || bd.Verify <= 0 || bd.Apply <= 0 || bd.KeyGen <= 0 {
		t.Errorf("breakdown = %+v", bd)
	}
}

func TestReplayRejected(t *testing.T) {
	r := newRig(t)
	wire := r.wirePatch(t, "RIG-1")
	r.sealPackage(t, wire)

	// Capture the staged directory the way a MITM on the shared memory
	// channel would (reading via SMM is the test's shortcut; the
	// attacker would capture it at write time).
	base := r.k.Res.WBase()
	captured, err := parseBatchDir(func(addr uint64, dst []byte) error {
		return r.m.Mem.Read(mem.PrivSMM, addr, dst)
	}, base, base+r.k.Res.W.Size)
	if err != nil {
		t.Fatal(err)
	}

	if err := r.process(t); err != nil {
		t.Fatal(err)
	}
	// Roll the patch back so a successful replay would be visible.
	rbWire, err := rollbackWire("RIG-1")
	if err != nil {
		t.Fatal(err)
	}
	r.sealPackage(t, rbWire)
	if err := r.process(t); err != nil {
		t.Fatal(err)
	}

	// Replay the captured directory, salt and ciphertext. The SMM nonce
	// has rotated, so the session key differs and decryption yields
	// garbage that fails validation.
	r.stage(t, captured...)
	if err := r.process(t); err == nil {
		t.Fatal("replayed package accepted")
	}
	if codes, summary := r.codes(t); len(codes) != 1 || codes[0] != StatusError || summary != StatusBatchDone {
		t.Errorf("replay codes = %v, summary %d; want [StatusError], StatusBatchDone", codes, summary)
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
	// Kernel-privilege attacker flips a staged ciphertext byte (mem_W
	// is kernel-writable by design). The directory header, salt length,
	// salt and ciphertext length take 8+4+32+4 bytes.
	if err := r.m.Mem.Write(mem.PrivKernel, r.k.Res.WBase()+8+4+32+4+20, []byte{0xFF}); err != nil {
		t.Fatal(err)
	}
	err := r.process(t)
	if err == nil {
		t.Fatal("tampered package accepted")
	}
	if v, _ := r.k.Call(0, "gadget", 0xdead); v != 99 {
		t.Error("tampered package had an effect")
	}
	if codes, summary := r.codes(t); len(codes) != 1 || codes[0] != StatusError || summary != StatusBatchDone {
		t.Errorf("codes = %v, summary %d; want [StatusError], StatusBatchDone", codes, summary)
	}
}

func TestVersionSkewRejected(t *testing.T) {
	r := newRig(t)
	p := r.preparedPatch(t, "RIG-1")
	p.KernelVersion = "3.14"
	wire, err := patch.AppendMarshal(nil, p, patch.OpPatch, kcrypto.HashSHA256)
	if err != nil {
		t.Fatal(err)
	}
	r.sealPackage(t, wire)
	err = r.process(t)
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
	wire, err := patch.AppendMarshal(nil, p, patch.OpPatch, kcrypto.HashSHA256)
	if err != nil {
		t.Fatal(err)
	}
	r.sealPackage(t, wire)
	if err := r.process(t); err == nil {
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
	if err := r.process(t); err != nil {
		t.Fatal(err)
	}
	wire, err := rollbackWire("RIG-OTHER")
	if err != nil {
		t.Fatal(err)
	}
	r.sealPackage(t, wire)
	err = r.process(t)
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
	if err := r.process(t); err != nil {
		t.Fatal(err)
	}
	dirty, err := r.m.Mem.DiffFramesIn(snap, text.Base, text.Size)
	if err != nil {
		t.Fatal(err)
	}
	if len(dirty) == 0 {
		t.Fatal("applied patch left no dirty text frames")
	}

	wire, err := rollbackWire("RIG-1")
	if err != nil {
		t.Fatal(err)
	}
	r.sealPackage(t, wire)
	if err := r.process(t); err != nil {
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
	if err := r.process(t); err != nil {
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
	wire, err := patch.AppendMarshal(nil, p, patch.OpPatch, kcrypto.HashSHA256)
	if err != nil {
		t.Fatal(err)
	}
	r.sealPackage(t, wire)
	if err := r.process(t); err == nil {
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
	if err := r.process(t); err != nil {
		t.Fatalf("clean patch after failure: %v", err)
	}
}

// TestDirectoryDispatchesPerMember stages patches and rollbacks in one
// directory: each member dispatches on its own op, a failing member
// keeps its typed error without stopping the rest, and the summary
// status is StatusBatchDone.
func TestDirectoryDispatchesPerMember(t *testing.T) {
	r := newRig(t)
	wire := r.wirePatch(t, "RIG-1")
	rb, err := rollbackWire("RIG-1")
	if err != nil {
		t.Fatal(err)
	}
	r.stage(t,
		r.sealMember(t, testRoot, wire),
		r.sealMember(t, testRoot, wire),
		r.sealMember(t, testRoot, rb),
		r.sealMember(t, testRoot, rb))
	if err := r.ctrl.Trigger(CmdProcessPackage, 0); err != nil {
		t.Fatal(err)
	}
	wantCodes := []uint32{StatusPatched, StatusError, StatusRolledBack, StatusError}
	wantErrs := []error{nil, ErrDuplicate, nil, ErrNothingApplied}
	codes, summary := r.codes(t)
	outs := r.h.Outcomes()
	if summary != StatusBatchDone || len(codes) != len(wantCodes) || len(outs) != len(wantCodes) {
		t.Fatalf("summary %d, %d codes, %d outcomes", summary, len(codes), len(outs))
	}
	for i := range wantCodes {
		if codes[i] != wantCodes[i] {
			t.Errorf("member %d code = %d, want %d", i, codes[i], wantCodes[i])
		}
		if (wantErrs[i] == nil) != (outs[i].Err == nil) || !errors.Is(outs[i].Err, wantErrs[i]) {
			t.Errorf("member %d error = %v, want %v", i, outs[i].Err, wantErrs[i])
		}
	}
	if got := r.h.Applied(); len(got) != 0 {
		t.Errorf("journal = %v after patch + rollback", got)
	}
	if v, err := r.k.Call(0, "gadget", 0xdead); err != nil || v != 99 {
		t.Errorf("gadget = %d, %v after patch + rollback", v, err)
	}
}

// TestAbortCutsOneMemberDirectory: the injected mid-SMI abort fires
// before a directory's only member as before any other, the member
// reports an error, and the consumed nonce still rotates.
func TestAbortCutsOneMemberDirectory(t *testing.T) {
	r := newRig(t)
	r.h.SetObserver(&obs.Hooks{Faults: faultinject.New(faultinject.Exact(faultinject.Fault{Point: faultinject.SMMBatchAbort}))})
	r.sealPackage(t, r.wirePatch(t, "RIG-1"))
	if err := r.process(t); !errors.Is(err, errCutShort) {
		t.Fatalf("got %v, want the cut-short outcome", err)
	}
	if codes, summary := r.codes(t); len(codes) != 1 || codes[0] != StatusError || summary != StatusBatchDone {
		t.Errorf("codes = %v, summary %d; want [StatusError], StatusBatchDone", codes, summary)
	}
	if got := r.h.Applied(); len(got) != 0 {
		t.Errorf("journal = %v after an aborted SMI", got)
	}
	r.h.SetObserver(nil)
	r.sealPackage(t, r.wirePatch(t, "RIG-1"))
	if err := r.process(t); err != nil {
		t.Fatalf("redelivery after abort: %v", err)
	}
}
