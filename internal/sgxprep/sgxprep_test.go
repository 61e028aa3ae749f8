package sgxprep

import (
	"bytes"
	"math/rand"
	"slices"
	"strings"
	"testing"

	"kshot/internal/kcrypto"
	"kshot/internal/kernel"
	"kshot/internal/mem"
	"kshot/internal/patch"
	"kshot/internal/sgx"
	"kshot/internal/timing"
)

type detRand struct{ r *rand.Rand }

func (d *detRand) Read(p []byte) (int, error) {
	for i := range p {
		p[i] = byte(d.r.Intn(256))
	}
	return len(p), nil
}

const vulnSrc = `
.func probe
    mov r0, r1
    add r0, r1
    ret
.endfunc
`

const fixedSrc = `
.func probe
    mov r0, r1
    add r0, r1
    cmpi r0, 64
    jle .k
    movi r0, 64
.k:
    ret
.endfunc
`

// testRoot is the channel root the fixtures share with the SMM side
// the tests play; testNonce stands in for the handler's published
// nonce.
var (
	testRoot  = bytes.Repeat([]byte{0x42}, 32)
	testNonce = bytes.Repeat([]byte{0x17}, 32)
)

// openSealed decrypts a sealed package the way the SMM handler does
// and returns its wire bytes. It decrypts a copy, so ct still holds
// the ciphertext afterwards.
func openSealed(t *testing.T, ct, salt []byte) []byte {
	t.Helper()
	key := kcrypto.DeriveKey(testRoot, testNonce, salt)
	sess, err := kcrypto.NewSession(key[:], nil)
	if err != nil {
		t.Fatal(err)
	}
	wire, err := sess.DecryptInPlace(bytes.Clone(ct))
	if err != nil {
		t.Fatal(err)
	}
	return wire
}

// fixture builds a loaded enclave plus the material around it.
type fixture struct {
	prog      *Program
	enclave   *sgx.Enclave
	serverKey []byte
	preImg    patch.ImagePair
	bp        *patch.BinaryPatch
	place     patch.Placement
}

func newFixture(t testing.TB, alg kcrypto.HashAlg) *fixture {
	t.Helper()
	st, err := kernel.BaseTree("4.4")
	if err != nil {
		t.Fatal(err)
	}
	st.AddFile("cve/probe.asm", vulnSrc)
	preImg, preUnit, err := st.Build()
	if err != nil {
		t.Fatal(err)
	}
	post := st.Clone()
	if err := post.Apply(kernel.SourcePatch{ID: "P", Files: map[string]string{"cve/probe.asm": fixedSrc}}); err != nil {
		t.Fatal(err)
	}
	postImg, postUnit, err := post.Build()
	if err != nil {
		t.Fatal(err)
	}
	bp, err := patch.Build("CVE-FIX", "4.4",
		patch.ImagePair{Img: preImg, Unit: preUnit},
		patch.ImagePair{Img: postImg, Unit: postUnit})
	if err != nil {
		t.Fatal(err)
	}

	rng := &detRand{r: rand.New(rand.NewSource(3))}
	serverKey := make([]byte, 32)
	if _, err := rng.Read(serverKey); err != nil {
		t.Fatal(err)
	}
	place := patch.Placement{
		MemXBase: 0x100000, MemXSize: 1 << 20,
		DataAllocBase: 0x300000, DataAllocSize: 1 << 16,
	}
	prog, err := New(Config{
		ServerKey:     serverKey,
		KernelVersion: "4.4",
		KernelSymbols: preImg.Symbols,
		Placement:     place,
		HashAlg:       alg,
		Model:         timing.Calibrated(),
		Rand:          rng,
		SessionRoot:   testRoot,
	})
	if err != nil {
		t.Fatal(err)
	}
	phys := mem.New(64 << 20)
	plat, err := sgx.NewPlatform(phys, 0x200000, 64*sgx.PageSize)
	if err != nil {
		t.Fatal(err)
	}
	enclave, err := plat.Load(prog, EnclavePages)
	if err != nil {
		t.Fatal(err)
	}
	return &fixture{
		prog: prog, enclave: enclave, serverKey: serverKey,
		preImg: patch.ImagePair{Img: preImg, Unit: preUnit},
		bp:     bp, place: place,
	}
}

// serverBlob encrypts the binary patch the way the server does.
func (f *fixture) serverBlob(t *testing.T) []byte {
	t.Helper()
	plain := patch.Encode(f.bp)
	sess, err := kcrypto.NewSession(f.serverKey, nil)
	if err != nil {
		t.Fatal(err)
	}
	ct, err := sess.Seal(nil, plain)
	if err != nil {
		t.Fatal(err)
	}
	return ct
}

// prepare runs the fixture's patch through a one-member FnPrepare and
// returns the member.
func (f *fixture) prepare(t *testing.T) MemberResult {
	t.Helper()
	return f.prepareBlob(t, f.serverBlob(t))
}

// prepareBlob runs one server blob through a one-member FnPrepare.
func (f *fixture) prepareBlob(t *testing.T, blob []byte) MemberResult {
	t.Helper()
	ms := prepareCall(t, f.enclave, &PrepareArgs{Members: patchMembers(blob), SMMPub: testNonce})
	if len(ms) != 1 {
		t.Fatalf("%d members for a one-member call", len(ms))
	}
	return ms[0]
}

// patchMembers makes one patch member per server blob.
func patchMembers(blobs ...[]byte) []Member {
	ms := make([]Member, len(blobs))
	for i, b := range blobs {
		ms[i] = Member{Op: patch.OpPatch, Data: b}
	}
	return ms
}

// prepareCall runs one FnPrepare ECALL and decodes its results.
func prepareCall(t *testing.T, e *sgx.Enclave, a *PrepareArgs) []MemberResult {
	t.Helper()
	out, err := e.ECall(FnPrepare, AppendPrepareArgs(nil, a))
	if err != nil {
		t.Fatalf("FnPrepare: %v", err)
	}
	ms, err := DecodeResults(out)
	if err != nil {
		t.Fatal(err)
	}
	return ms
}

func TestPrepareProducesDecryptablePackage(t *testing.T) {
	f := newFixture(t, kcrypto.HashSHA256)
	res := f.prepare(t)
	if res.Err != "" || res.ID != "CVE-FIX" || res.PayloadBytes == 0 || res.MemXUsed == 0 {
		t.Errorf("result = %+v", res)
	}
	// The SMM side can decrypt with the shared root and its nonce.
	wire := openSealed(t, res.Ciphertext, res.EnclavePub)
	pkg, err := patch.Unmarshal(wire)
	if err != nil {
		t.Fatalf("unmarshal prepared package: %v", err)
	}
	if pkg.ID != "CVE-FIX" || pkg.Op != patch.OpPatch || len(pkg.Funcs) != 1 {
		t.Errorf("package = %+v", pkg)
	}
	if pkg.Funcs[0].PAddr < f.place.MemXBase {
		t.Error("payload placed outside mem_X")
	}
	m := timing.Calibrated()
	if want := timing.Linear(m.PrepFixed, m.PrepPerByte, res.PayloadBytes); res.Prep != want {
		t.Errorf("preprocessing time = %v, want the model's %v", res.Prep, want)
	}
	// Ciphertext must not contain the plaintext wire bytes.
	if bytes.Contains(res.Ciphertext, wire[:32]) {
		t.Error("package plaintext visible in ciphertext")
	}
}

func TestPrepareRollbackPackage(t *testing.T) {
	f := newFixture(t, kcrypto.HashSHA256)
	ms := prepareCall(t, f.enclave, &PrepareArgs{
		Members: []Member{{Op: patch.OpRollback, Data: []byte("CVE-FIX")}},
		SMMPub:  testNonce,
	})
	if len(ms) != 1 {
		t.Fatalf("%d members for a one-member call", len(ms))
	}
	res := ms[0]
	if res.Err != "" || res.ID != "CVE-FIX" || res.PayloadBytes != 0 || res.MemXUsed != 0 || res.DataUsed != 0 {
		t.Errorf("rollback result = %+v", res)
	}
	if want := timing.Calibrated().PrepFixed; res.Prep != want {
		t.Errorf("rollback preprocessing = %v, want the model's fixed %v", res.Prep, want)
	}
	pkg, err := patch.Unmarshal(openSealed(t, res.Ciphertext, res.EnclavePub))
	if err != nil {
		t.Fatal(err)
	}
	if pkg.Op != patch.OpRollback || pkg.ID != "CVE-FIX" {
		t.Errorf("rollback package = %+v", pkg)
	}
}

func TestRejectsWrongServerKey(t *testing.T) {
	f := newFixture(t, kcrypto.HashSHA256)
	wrong := make([]byte, 32)
	sess, _ := kcrypto.NewSession(wrong, nil)
	plain := patch.Encode(f.bp)
	ct, _ := sess.Seal(nil, plain)
	if res := f.prepareBlob(t, ct); res.Err == "" || len(res.Ciphertext) != 0 {
		t.Errorf("blob under wrong key accepted: %+v", res)
	}
}

func TestRejectsVersionMismatch(t *testing.T) {
	f := newFixture(t, kcrypto.HashSHA256)
	f.bp.KernelVersion = "3.14"
	if res := f.prepare(t); !strings.Contains(res.Err, "3.14") {
		t.Errorf("version mismatch not rejected: %q", res.Err)
	}
}

// A new global's size comes from the server blob, which carries no
// MAC: one past the data allocation area is a member error before
// anything is allocated for it, including a size whose sum with the
// cursor wraps.
func TestRejectsOversizedNewGlobal(t *testing.T) {
	f := newFixture(t, kcrypto.HashSHA256)
	good := f.serverBlob(t)
	for _, size := range []uint64{1 << 50, ^uint64(0) - 7} {
		f.bp.Globals = []patch.GlobalEdit{{Name: "huge", New: true, Size: size}}
		ms := prepareCall(t, f.enclave, &PrepareArgs{
			Members:    patchMembers(f.serverBlob(t), slices.Clone(good)),
			SMMPub:     testNonce,
			DataCursor: 16,
		})
		if len(ms) != 2 || !strings.Contains(ms[0].Err, "data allocation area exhausted") {
			t.Errorf("size %#x: results = %+v, want the first member refused", size, ms)
			continue
		}
		if ms[1].Err != "" || ms[1].MemXUsed == 0 {
			t.Errorf("size %#x: the member after a refused one failed: %+v", size, ms[1])
		}
	}
}

func TestRejectsBadECall(t *testing.T) {
	f := newFixture(t, kcrypto.HashSHA256)
	if _, err := f.enclave.ECall(99, nil); err == nil {
		t.Error("unknown ecall accepted")
	}
	// Functions 1 and 2 were the single-patch prepare and the rollback
	// prepare; both are now one-member FnPrepare calls.
	for _, fn := range []int{1, 2} {
		args := AppendPrepareArgs(nil, &PrepareArgs{Members: []Member{{Op: patch.OpRollback, Data: []byte("CVE-FIX")}}, SMMPub: testNonce})
		if _, err := f.enclave.ECall(fn, args); err == nil {
			t.Errorf("retired ecall %d accepted", fn)
		}
	}
	if _, err := f.enclave.ECall(FnPrepare, []byte("garbage")); err == nil {
		t.Error("garbage args accepted")
	}
	// An op SMM does not dispatch on is refused before any member is
	// prepared.
	args := AppendPrepareArgs(nil, &PrepareArgs{Members: []Member{{Op: patch.OpRollback + 1, Data: []byte("CVE-FIX")}}, SMMPub: testNonce})
	if _, err := f.enclave.ECall(FnPrepare, args); err == nil || !strings.Contains(err.Error(), "op 3") {
		t.Errorf("unknown member op: err = %v, want a refusal naming op 3", err)
	}
}

func TestConfigValidation(t *testing.T) {
	if _, err := New(Config{ServerKey: []byte("short")}); err == nil {
		t.Error("short server key accepted")
	}
}

func TestIdentityIncludesVersion(t *testing.T) {
	if Identity("3.14") == Identity("4.4") {
		t.Error("identities of different kernels coincide")
	}
	f := newFixture(t, kcrypto.HashSHA256)
	if f.prog.Identity() != Identity("4.4") {
		t.Error("program identity mismatch")
	}
}

func TestSDBMAlgCarriedInPackage(t *testing.T) {
	f := newFixture(t, kcrypto.HashSDBM)
	res := f.prepare(t)
	pkg, err := patch.Unmarshal(openSealed(t, res.Ciphertext, res.EnclavePub))
	if err != nil {
		t.Fatal(err)
	}
	if pkg.HashAlg != kcrypto.HashSDBM {
		t.Errorf("hash alg = %v", pkg.HashAlg)
	}
}
