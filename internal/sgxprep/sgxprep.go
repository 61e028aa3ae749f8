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
	"time"

	"kshot/internal/isa"
	"kshot/internal/kcrypto"
	"kshot/internal/obs"
	"kshot/internal/patch"
	"kshot/internal/sgx"
	"kshot/internal/timing"
)

// ECALL function numbers.
const (
	// FnPrepare preprocesses a patch blob into an encrypted package.
	FnPrepare = 1
	// FnPrepareRollback builds an encrypted rollback command package.
	FnPrepareRollback = 2
	// FnPrepareBatch preprocesses many patch blobs in one ECALL,
	// sealing each member with its own salt against the same SMM
	// nonce, for batched SMI delivery.
	FnPrepareBatch = 3
)

// EnclavePages is the number of EPC pages the preparation enclave
// needs.
const EnclavePages = 8

// serverKeyOff is where the provisioned server channel key lives in
// the EPC.
const serverKeyOff = 0

// PrepareArgs is the input of FnPrepare (see EncodePrepareArgs).
type PrepareArgs struct {
	// ServerBlob is the encrypted BinaryPatch from the remote server.
	ServerBlob []byte

	// SMMPub is the SMM handler's published channel nonce, read from
	// mem_RW by the helper.
	SMMPub []byte

	// MemXCursor/DataCursor are the SMM handler's current allocation
	// cursors.
	MemXCursor uint64
	DataCursor uint64
}

// RollbackArgs is the input of FnPrepareRollback.
type RollbackArgs struct {
	ID     string
	SMMPub []byte
}

// BatchPrepareArgs is the input of FnPrepareBatch. Members are
// prepared in order against a running allocation cursor: member i+1's
// mem_X placement assumes members 0..i apply first, which is exactly
// the order the SMM batch handler processes the staging directory.
type BatchPrepareArgs struct {
	// ServerBlobs are the encrypted BinaryPatches, one per member.
	ServerBlobs [][]byte

	// SMMPub is the SMM handler's published channel nonce; every
	// member is sealed against it with a fresh enclave salt.
	SMMPub []byte

	// MemXCursor/DataCursor are the SMM handler's allocation cursors
	// before the batch.
	MemXCursor uint64
	DataCursor uint64
}

// BatchMemberResult is one member's outcome in a BatchResult. A failed
// member carries Err and consumes no allocation; later members are
// still prepared (one bad blob does not sink the batch).
type BatchMemberResult struct {
	Result

	// Prep is this member's share of the preprocessing cost.
	Prep time.Duration

	// Err is the member's preparation failure, empty on success. It is
	// a string because the result crosses the enclave boundary.
	Err string
}

// BatchResult is the output of FnPrepareBatch, in member order.
type BatchResult struct {
	Members []BatchMemberResult
}

// Result is the output of both ECALLs.
type Result struct {
	// Ciphertext is the encrypted patch package for mem_W.
	Ciphertext []byte

	// EnclavePub is the enclave's per-package salt for mem_RW.
	EnclavePub []byte

	// ID echoes the patch ID; MemXUsed/DataUsed report the allocation
	// this patch will consume (for the caller's bookkeeping).
	ID       string
	MemXUsed uint64
	DataUsed uint64

	// PayloadBytes is the total function payload size (the "patch
	// size" the evaluation tables sweep).
	PayloadBytes int
}

// Breakdown reports the virtual preprocessing time of the last ECALL
// (the "Pre-processing" column of Table II).
type Breakdown struct {
	Preprocess time.Duration
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
	// sealForSMM draws a fresh random 32-byte salt per package and
	// seals with HMAC(root, smmNonce, salt), publishing the salt
	// through the EnclavePub slot. The same root is provisioned into
	// the SMM handler before SMRAM lock. See smmpatch.Config.SessionRoot
	// for the protocol rationale.
	SessionRoot []byte
}

// Program is the enclave program; load it with sgx.Platform.Load.
type Program struct {
	cfg     Config
	rng     io.Reader
	symtab  *isa.SymTab
	lastPre Breakdown
	obs     *obs.Hooks
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

// LastBreakdown returns the preprocessing time of the last ECALL.
func (p *Program) LastBreakdown() Breakdown { return p.lastPre }

// SetObserver installs (or, with nil, removes) the observability hooks
// emitting a T_prep span per prepared patch.
func (p *Program) SetObserver(ob *obs.Hooks) { p.obs = ob }

// ECall implements sgx.Program.
func (p *Program) ECall(env *sgx.Env, fn int, args []byte) ([]byte, error) {
	switch fn {
	case FnPrepare:
		in, err := DecodePrepareArgs(args)
		if err != nil {
			return nil, fmt.Errorf("sgxprep: args: %w", err)
		}
		return p.prepare(env, in)
	case FnPrepareRollback:
		in, err := DecodeRollbackArgs(args)
		if err != nil {
			return nil, fmt.Errorf("sgxprep: args: %w", err)
		}
		return p.prepareRollback(env, in)
	case FnPrepareBatch:
		in, err := DecodeBatchPrepareArgs(args)
		if err != nil {
			return nil, fmt.Errorf("sgxprep: args: %w", err)
		}
		return p.prepareBatch(env, in)
	default:
		return nil, fmt.Errorf("sgxprep: no such ecall %d", fn)
	}
}

func (p *Program) prepare(env *sgx.Env, in *PrepareArgs) ([]byte, error) {
	// Decrypt the server blob with the key held in the EPC.
	serverKey := make([]byte, 32)
	if err := env.Read(serverKeyOff, serverKey); err != nil {
		return nil, err
	}
	serverSession, err := kcrypto.NewSession(serverKey, p.rng)
	if err != nil {
		return nil, err
	}
	plain, err := serverSession.Decrypt(in.ServerBlob)
	if err != nil {
		return nil, fmt.Errorf("sgxprep: server blob: %w", err)
	}
	bp, err := patch.Decode(plain)
	if err != nil {
		return nil, fmt.Errorf("sgxprep: server blob decode: %w", err)
	}
	if bp.KernelVersion != p.cfg.KernelVersion {
		return nil, fmt.Errorf("sgxprep: patch for kernel %q, running %q", bp.KernelVersion, p.cfg.KernelVersion)
	}

	// Preprocess: placement, relocation, trampolines, packaging
	// (Table II "Pre-processing", charged per payload byte).
	start := p.cfg.Clock.Now()
	prepared, err := patch.Prepare(bp, p.symtab, p.cfg.Placement, in.MemXCursor, in.DataCursor)
	if err != nil {
		return nil, err
	}
	wire, err := patch.Marshal(prepared, patch.OpPatch, p.cfg.HashAlg)
	if err != nil {
		return nil, err
	}
	p.cfg.Clock.Advance(timing.Linear(p.cfg.Model.PrepFixed, p.cfg.Model.PrepPerByte, bp.PayloadBytes()))
	p.lastPre = Breakdown{Preprocess: p.cfg.Clock.Now() - start}
	p.obs.Span(obs.PhasePrep, bp.ID, -1, p.lastPre.Preprocess, bp.PayloadBytes())

	res, err := p.sealForSMM(wire, in.SMMPub)
	if err != nil {
		return nil, err
	}
	res.ID = bp.ID
	res.MemXUsed = prepared.MemXUsed
	res.DataUsed = prepared.DataUsed
	res.PayloadBytes = bp.PayloadBytes()
	return encodeResult(res), nil
}

// prepareBatch is the prepare-many ECALL: each server blob is
// decrypted, preprocessed at the running cursor, and sealed with its
// own salt against the shared SMM nonce. Preprocessing
// costs are computed directly from the model (not clock spans) so the
// per-member numbers stay exact when pipelined fetches advance the
// shared clock concurrently.
func (p *Program) prepareBatch(env *sgx.Env, in *BatchPrepareArgs) ([]byte, error) {
	serverKey := make([]byte, 32)
	if err := env.Read(serverKeyOff, serverKey); err != nil {
		return nil, err
	}
	serverSession, err := kcrypto.NewSession(serverKey, p.rng)
	if err != nil {
		return nil, err
	}

	curX, curD := in.MemXCursor, in.DataCursor
	out := BatchResult{Members: make([]BatchMemberResult, len(in.ServerBlobs))}
	var total time.Duration
	for i, blob := range in.ServerBlobs {
		mr := &out.Members[i]
		plain, err := serverSession.Decrypt(blob)
		if err != nil {
			mr.Err = fmt.Sprintf("server blob: %v", err)
			continue
		}
		bp, err := patch.Decode(plain)
		if err != nil {
			mr.Err = fmt.Sprintf("server blob decode: %v", err)
			continue
		}
		mr.ID = bp.ID
		if bp.KernelVersion != p.cfg.KernelVersion {
			mr.Err = fmt.Sprintf("patch for kernel %q, running %q", bp.KernelVersion, p.cfg.KernelVersion)
			continue
		}
		prepared, err := patch.Prepare(bp, p.symtab, p.cfg.Placement, curX, curD)
		if err != nil {
			mr.Err = err.Error()
			continue
		}
		wire, err := patch.Marshal(prepared, patch.OpPatch, p.cfg.HashAlg)
		if err != nil {
			mr.Err = err.Error()
			continue
		}
		prep := timing.Linear(p.cfg.Model.PrepFixed, p.cfg.Model.PrepPerByte, bp.PayloadBytes())
		p.cfg.Clock.Advance(prep)
		total += prep
		p.obs.Span(obs.PhasePrep, bp.ID, -1, prep, bp.PayloadBytes())
		sealed, err := p.sealForSMM(wire, in.SMMPub)
		if err != nil {
			mr.Err = err.Error()
			continue
		}
		mr.Ciphertext = sealed.Ciphertext
		mr.EnclavePub = sealed.EnclavePub
		mr.MemXUsed = prepared.MemXUsed
		mr.DataUsed = prepared.DataUsed
		mr.PayloadBytes = bp.PayloadBytes()
		mr.Prep = prep
		// MemXUsed/DataUsed are per-patch consumption deltas; cursors
		// advance only past successful members, matching the SMM
		// handler, which skips failed ones.
		curX += prepared.MemXUsed
		curD += prepared.DataUsed
	}
	p.lastPre = Breakdown{Preprocess: total}
	return encodeBatchResult(&out), nil
}

func (p *Program) prepareRollback(_ *sgx.Env, in *RollbackArgs) ([]byte, error) {
	wire, err := patch.MarshalRollback(in.ID, p.cfg.KernelVersion)
	if err != nil {
		return nil, err
	}
	p.cfg.Clock.Advance(p.cfg.Model.PrepFixed)
	p.obs.Span(obs.PhasePrep, "rollback:"+in.ID, -1, p.cfg.Model.PrepFixed, 0)
	res, err := p.sealForSMM(wire, in.SMMPub)
	if err != nil {
		return nil, err
	}
	res.ID = in.ID
	return encodeResult(res), nil
}

// sealForSMM encrypts the wire package for the mem_W channel under
// HMAC(root, smmNonce, salt) with a fresh salt, which the enclave
// contributes through the EnclavePub slot. The SMM side consumes its
// nonce per package, so a sealed package never opens twice.
func (p *Program) sealForSMM(wire, smmNonce []byte) (*Result, error) {
	salt := make([]byte, 32)
	if _, err := io.ReadFull(p.rng, salt); err != nil {
		return nil, fmt.Errorf("sgxprep: salt: %w", err)
	}
	session, err := kcrypto.NewSession(kcrypto.DeriveKey(p.cfg.SessionRoot, smmNonce, salt), p.rng)
	if err != nil {
		return nil, err
	}
	ct, err := session.Encrypt(wire)
	if err != nil {
		return nil, err
	}
	return &Result{Ciphertext: ct, EnclavePub: salt}, nil
}
