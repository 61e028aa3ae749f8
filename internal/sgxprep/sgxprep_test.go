package sgxprep

import (
	"bytes"
	"math/rand"
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
// and returns its wire bytes.
func openSealed(t *testing.T, ct, salt []byte) []byte {
	t.Helper()
	sess, err := kcrypto.NewSession(kcrypto.DeriveKey(testRoot, testNonce, salt), nil)
	if err != nil {
		t.Fatal(err)
	}
	wire, err := sess.Decrypt(ct)
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
	ct, err := sess.Encrypt(plain)
	if err != nil {
		t.Fatal(err)
	}
	return ct
}

func (f *fixture) prepare(t *testing.T) *Result {
	t.Helper()
	out, err := f.enclave.ECall(FnPrepare, EncodePrepareArgs(&PrepareArgs{
		ServerBlob: f.serverBlob(t),
		SMMPub:     testNonce,
	}))
	if err != nil {
		t.Fatal(err)
	}
	res, err := DecodeResult(out)
	if err != nil {
		t.Fatal(err)
	}
	return res
}

func TestPrepareProducesDecryptablePackage(t *testing.T) {
	f := newFixture(t, kcrypto.HashSHA256)
	res := f.prepare(t)
	if res.ID != "CVE-FIX" || res.PayloadBytes == 0 || res.MemXUsed == 0 {
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
	if f.prog.LastBreakdown().Preprocess <= 0 {
		t.Error("no preprocessing time recorded")
	}
	// Ciphertext must not contain the plaintext wire bytes.
	if bytes.Contains(res.Ciphertext, wire[:32]) {
		t.Error("package plaintext visible in ciphertext")
	}
}

func TestPrepareRollbackPackage(t *testing.T) {
	f := newFixture(t, kcrypto.HashSHA256)
	out, err := f.enclave.ECall(FnPrepareRollback, EncodeRollbackArgs(&RollbackArgs{ID: "CVE-FIX", SMMPub: testNonce}))
	if err != nil {
		t.Fatal(err)
	}
	res, err := DecodeResult(out)
	if err != nil {
		t.Fatal(err)
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
	ct, _ := sess.Encrypt(plain)
	args := EncodePrepareArgs(&PrepareArgs{ServerBlob: ct, SMMPub: testNonce})
	if _, err := f.enclave.ECall(FnPrepare, args); err == nil {
		t.Error("blob under wrong key accepted")
	}
}

func TestRejectsVersionMismatch(t *testing.T) {
	f := newFixture(t, kcrypto.HashSHA256)
	f.bp.KernelVersion = "3.14"
	args := EncodePrepareArgs(&PrepareArgs{ServerBlob: f.serverBlob(t), SMMPub: testNonce})
	_, err := f.enclave.ECall(FnPrepare, args)
	if err == nil || !strings.Contains(err.Error(), "3.14") {
		t.Errorf("version mismatch not rejected: %v", err)
	}
}

func TestRejectsBadECall(t *testing.T) {
	f := newFixture(t, kcrypto.HashSHA256)
	if _, err := f.enclave.ECall(99, nil); err == nil {
		t.Error("unknown ecall accepted")
	}
	if _, err := f.enclave.ECall(FnPrepare, []byte("garbage")); err == nil {
		t.Error("garbage args accepted")
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
