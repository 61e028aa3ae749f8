// Package sgxprep implements KShot's SGX-resident patch preparation
// enclave (§V-B). The enclave receives the encrypted binary patch the
// untrusted helper fetched from the remote server, decrypts and
// verifies it inside the EPC, preprocesses it against the running
// kernel's symbol table (mem_X placement, relocation resolution,
// trampoline computation — the heavy lifting that would otherwise
// extend the OS pause if done in SMM), seals it under a per-package
// key derived from the channel root it shares with the SMM handler,
// and returns the encrypted patch package for the helper to stage
// into mem_W.
//
// Plaintext patch bytes and key material exist only inside the
// enclave: the helper sees ciphertext in, ciphertext out.
package sgxprep

import (
	"crypto/rand"
	"errors"
	"fmt"
	"io"
	"slices"
	"time"

	"kshot/internal/isa"
	"kshot/internal/kcrypto"
	"kshot/internal/obs"
	"kshot/internal/patch"
	"kshot/internal/sgx"
	"kshot/internal/timing"
	"kshot/internal/wire"
)

// FnPrepare is the enclave's one ECALL. It prepares an ordered list of
// members, each a patch or a rollback command, sealing each with its
// own salt against the same SMM nonce for delivery as one staging
// directory. A single patch or rollback is a one-member call.
// (Numbers 1 and 2 were the retired single-patch and rollback calls.)
const FnPrepare = 3

// EnclavePages is the number of EPC pages the preparation enclave
// needs.
const EnclavePages = 8

// serverKeyOff is where the provisioned server channel key lives in
// the EPC.
const serverKeyOff = 0

// Member is one package to prepare.
type Member struct {
	// Op is patch.OpPatch or patch.OpRollback, the operation the SMM
	// handler dispatches the sealed package on.
	Op patch.Op

	// Data is the server's encrypted BinaryPatch for a patch member,
	// or the ID of the patch to undo for a rollback member.
	Data []byte
}

// PrepareArgs is the input of FnPrepare. Patch members are prepared in
// order against a running allocation cursor: patch member i+1's mem_X
// placement assumes the patches before it apply first, which is
// exactly the order the SMM handler processes the staging directory.
// Rollback members consume no allocation.
type PrepareArgs struct {
	Members []Member

	// SMMPub is the SMM handler's published channel nonce; every
	// member is sealed against it with a fresh enclave salt.
	SMMPub []byte

	// MemXCursor/DataCursor are the SMM handler's allocation cursors
	// before the call.
	MemXCursor uint64
	DataCursor uint64
}

// MemberResult is one member's outcome; FnPrepare returns one per
// member, in member order. A failed member carries Err and consumes
// no allocation; later members are still prepared (one bad blob does
// not sink the call).
type MemberResult struct {
	// Ciphertext is the encrypted package for mem_W.
	Ciphertext []byte

	// EnclavePub is the enclave's per-package salt, staged beside the
	// ciphertext in the mem_W directory.
	EnclavePub []byte

	// ID echoes the patch ID; MemXUsed/DataUsed report the allocation
	// this patch will consume (for the caller's bookkeeping).
	ID       string
	MemXUsed uint64
	DataUsed uint64

	// PayloadBytes is the total function payload size (the "patch
	// size" the evaluation tables sweep); zero for a rollback.
	PayloadBytes int

	// Prep is this member's share of the preprocessing cost.
	Prep time.Duration

	// Err is the member's preparation failure, empty on success. It is
	// a string because the result crosses the enclave boundary.
	Err string
}

// Config parameterizes the enclave program.
type Config struct {
	// ServerKey is the 32-byte channel key shared with the remote
	// patch server (established via remote attestation of this
	// enclave's measurement).
	ServerKey []byte

	// KernelVersion and KernelSymbols describe the running kernel
	// (collected safely at boot, §V-B). The symbol table is read-only
	// and shared by every enclave of one kernel image; nil means an
	// empty table.
	KernelVersion string
	KernelSymbols *isa.SymTab

	// Placement is the SMM handler's reserved memory layout.
	Placement patch.Placement

	// HashAlg selects the payload verification hash (SHA-256 default;
	// SDBM for the paper's cheaper-hash ablation).
	HashAlg kcrypto.HashAlg

	// Clock/Model drive virtual-time accounting. Clock may be nil.
	Clock *timing.Clock
	Model timing.Model

	// Rand is the entropy source (crypto/rand when nil).
	Rand io.Reader

	// SessionRoot is the 32-byte SGX↔SMM channel root (required):
	// seal draws a fresh random 32-byte salt per package and
	// seals with HMAC(root, smmNonce, salt), publishing the salt
	// through the EnclavePub slot. The same root is provisioned into
	// the SMM handler before SMRAM lock. See smmpatch.Config.SessionRoot
	// for the protocol rationale.
	SessionRoot []byte
}

// Program is the enclave program; load it with sgx.Platform.Load.
type Program struct {
	cfg    Config
	rng    io.Reader
	symtab *isa.SymTab
	obs    *obs.Hooks
}

var _ sgx.Program = (*Program)(nil)

// New validates the configuration and builds the enclave program.
func New(cfg Config) (*Program, error) {
	if len(cfg.ServerKey) != 32 {
		return nil, errors.New("sgxprep: server key must be 32 bytes")
	}
	if len(cfg.SessionRoot) != 32 {
		return nil, fmt.Errorf("sgxprep: session root must be 32 bytes, got %d", len(cfg.SessionRoot))
	}
	if cfg.HashAlg == 0 {
		cfg.HashAlg = kcrypto.HashSHA256
	}
	if cfg.Clock == nil {
		cfg.Clock = &timing.Clock{}
	}
	rng := cfg.Rand
	if rng == nil {
		rng = rand.Reader
	}
	symtab := cfg.KernelSymbols
	if symtab == nil {
		symtab = &isa.SymTab{}
	}
	return &Program{cfg: cfg, rng: rng, symtab: symtab}, nil
}

// Identity returns the measured identity string of the preparation
// enclave for a kernel version; the remote server computes the
// expected measurement from it without instantiating the program.
func Identity(kernelVersion string) string {
	return "kshot-patch-preparation-enclave v1 kernel=" + kernelVersion
}

// Identity implements sgx.Program; it is the measured enclave
// identity the remote server attests.
func (p *Program) Identity() string { return Identity(p.cfg.KernelVersion) }

// Init stores the server channel key in the EPC.
func (p *Program) Init(env *sgx.Env) error {
	return env.Write(serverKeyOff, p.cfg.ServerKey)
}

// SetObserver installs (or, with nil, removes) the observability hooks
// emitting a T_prep span per prepared patch.
func (p *Program) SetObserver(ob *obs.Hooks) { p.obs = ob }

// ECall implements sgx.Program.
func (p *Program) ECall(env *sgx.Env, fn int, args []byte) ([]byte, error) {
	if fn != FnPrepare {
		return nil, fmt.Errorf("sgxprep: no such ecall %d", fn)
	}
	in, err := DecodePrepareArgs(args)
	if err != nil {
		return nil, fmt.Errorf("sgxprep: args: %w", err)
	}
	return p.prepare(env, &in)
}

// prepare runs FnPrepare: each patch member's server blob is
// decrypted, preprocessed at the running cursor and sealed, and each
// rollback member's command is sealed, all against the shared SMM
// nonce. Preprocessing costs are computed directly from the model (not
// clock spans) so the per-member numbers stay exact when pipelined
// fetches advance the shared clock concurrently.
//
// Each member's package is marshaled straight into its record in the
// result block and sealed there in place, so no package exists
// anywhere else.
func (p *Program) prepare(env *sgx.Env, in *PrepareArgs) ([]byte, error) {
	// Only patch blobs come from the server, so a call without one
	// never reads the server key.
	var serverSession *kcrypto.Session
	if slices.ContainsFunc(in.Members, func(m Member) bool { return m.Op == patch.OpPatch }) {
		serverKey := make([]byte, 32)
		if err := env.Read(serverKeyOff, serverKey); err != nil {
			return nil, err
		}
		var err error
		if serverSession, err = kcrypto.NewSession(serverKey, p.rng); err != nil {
			return nil, err
		}
	}

	// A sealed package runs smaller than the server blob it comes from,
	// so the members' input holds a batch's result block without
	// regrowing it; appendPackage grows the block where it does not.
	size := 0
	for _, m := range in.Members {
		size += len(m.Data)
	}
	curX, curD := in.MemXCursor, in.DataCursor
	b := wire.AppendUvarint(make([]byte, 0, size), uint64(len(in.Members)))
	for _, m := range in.Members {
		start := len(b)
		var mr MemberResult
		var err error
		if m.Op == patch.OpRollback {
			b, err = p.appendRollback(b, &mr, string(m.Data), in.SMMPub)
		} else {
			b, err = p.appendPatch(b, &mr, serverSession, m.Data, curX, curD, in.SMMPub)
		}
		if err != nil {
			// A failed member consumes no allocation: cursors advance
			// only past successful members, matching the SMM handler,
			// which skips failed ones.
			b = appendResult(b[:start], &MemberResult{ID: mr.ID, Err: err.Error()})
			continue
		}
		curX += mr.MemXUsed
		curD += mr.DataUsed
	}
	return b, nil
}

// appendPatch decrypts and preprocesses one patch member's server blob
// at the cursors, recording its ID, allocation and cost in mr, and
// appends its sealed result record to b.
func (p *Program) appendPatch(b []byte, mr *MemberResult, serverSession *kcrypto.Session, blob []byte, curX, curD uint64, smmNonce []byte) ([]byte, error) {
	// blob aliases the enclave's private copy of the ECALL arguments
	// (sgx.Enclave.ECall copies them on every call), so it decrypts in
	// place, and the patch decoded from it aliases that plaintext.
	plain, err := serverSession.DecryptInPlace(blob)
	if err != nil {
		return b, fmt.Errorf("server blob: %w", err)
	}
	bp, err := patch.Decode(plain)
	if err != nil {
		return b, fmt.Errorf("server blob decode: %w", err)
	}
	mr.ID = bp.ID
	if bp.KernelVersion != p.cfg.KernelVersion {
		return b, fmt.Errorf("patch for kernel %q, running %q", bp.KernelVersion, p.cfg.KernelVersion)
	}
	prepared, err := patch.Prepare(bp, p.symtab, p.cfg.Placement, curX, curD)
	if err != nil {
		return b, err
	}
	b, slot, err := appendPackage(b, prepared, patch.OpPatch, p.cfg.HashAlg)
	if err != nil {
		return b, err
	}
	mr.MemXUsed, mr.DataUsed = prepared.MemXUsed, prepared.DataUsed
	mr.PayloadBytes = bp.PayloadBytes()
	mr.Prep = timing.Linear(p.cfg.Model.PrepFixed, p.cfg.Model.PrepPerByte, mr.PayloadBytes)
	p.cfg.Clock.Advance(mr.Prep)
	p.obs.Span(obs.PhasePrep, bp.ID, -1, mr.Prep, mr.PayloadBytes)
	return p.seal(b, slot, mr, smmNonce)
}

// appendRollback records a rollback member undoing patch id, at the
// model's fixed preprocessing cost, and appends its sealed result
// record to b.
func (p *Program) appendRollback(b []byte, mr *MemberResult, id string, smmNonce []byte) ([]byte, error) {
	mr.ID = id
	// The command is a package with no entries, naming the patch.
	cmd := &patch.Prepared{ID: id, KernelVersion: p.cfg.KernelVersion}
	b, slot, err := appendPackage(b, cmd, patch.OpRollback, kcrypto.HashSHA256)
	if err != nil {
		return b, err
	}
	mr.Prep = p.cfg.Model.PrepFixed
	p.cfg.Clock.Advance(mr.Prep)
	p.obs.Span(obs.PhasePrep, "rollback:"+id, -1, mr.Prep, 0)
	return p.seal(b, slot, mr, smmNonce)
}

// appendPackage opens a member's result record, whose first field is
// its ciphertext: the ciphertext's length, room for the seal's nonce,
// and then pp's wire package, marshaled in place. It first makes room
// in b for the whole record, which seal completes, and returns the
// offset of the ciphertext for seal.
func appendPackage(b []byte, pp *patch.Prepared, op patch.Op, alg kcrypto.HashAlg) ([]byte, int, error) {
	n := patch.MarshalSize(pp)
	b = wire.AppendUvarint(slices.Grow(b, resultSize(kcrypto.NonceSize+n, len(pp.ID))), uint64(kcrypto.NonceSize+n))
	slot := len(b)
	b, err := patch.AppendMarshal(append(b, make([]byte, kcrypto.NonceSize)...), pp, op, alg)
	return b, slot, err
}

// seal encrypts the package appendPackage left past the nonce gap at
// b[slot:] for the mem_W channel, in place, under HMAC(root, smmNonce,
// salt) with a fresh salt, which the enclave contributes through the
// EnclavePub slot, and appends the rest of mr's result record. The SMM
// side consumes its nonce per package, so a sealed package never opens
// twice.
func (p *Program) seal(b []byte, slot int, mr *MemberResult, smmNonce []byte) ([]byte, error) {
	salt := make([]byte, 32)
	if _, err := io.ReadFull(p.rng, salt); err != nil {
		return b, fmt.Errorf("sgxprep: salt: %w", err)
	}
	key := kcrypto.DeriveKey(p.cfg.SessionRoot, smmNonce, salt)
	session, err := kcrypto.NewSession(key[:], p.rng)
	if err != nil {
		return b, err
	}
	if b, err = session.Seal(b[:slot], b[slot+kcrypto.NonceSize:]); err != nil {
		return b, err
	}
	return appendResultTail(wire.AppendBytes(b, salt), mr), nil
}
