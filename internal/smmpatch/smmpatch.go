// Package smmpatch implements KShot's SMM-resident live patching
// handler (§V-C, §V-D): per-patch channel rekeying, patch package
// fetch from mem_W, decryption, integrity verification,
// global-variable edits, payload installation into mem_X, trampoline
// insertion, rollback from an SMRAM-held journal, and introspection
// that detects (and repairs) malicious patch reversion.
//
// The handler runs only inside SMIs, on a paused machine, with
// SMM-privilege memory access. Its persistent state — session keys,
// the patch journal, allocation cursors — lives logically in SMRAM:
// nothing the kernel can address. (The paper stores rollback originals
// in mem_W; we keep them in SMRAM instead and note the deviation,
// since mem_W is kernel-writable and a compromised kernel could
// otherwise corrupt rollback state.)
package smmpatch

import (
	"crypto/rand"
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"time"

	"kshot/internal/faultinject"
	"kshot/internal/isa"
	"kshot/internal/kcrypto"
	"kshot/internal/machine"
	"kshot/internal/mem"
	"kshot/internal/obs"
	"kshot/internal/patch"
	"kshot/internal/smm"
)

// SMI command codes (the APM-port bytes the helper writes to enter the
// handler).
const (
	// CmdKeyExchange makes SMM generate a fresh channel nonce and
	// publish it in mem_RW.
	CmdKeyExchange smm.Command = 0x4B
	// CmdProcessPackage makes SMM fetch, decrypt, verify, and execute
	// the package staged in mem_W (patch or rollback).
	CmdProcessPackage smm.Command = 0x50
	// CmdProcessBatch makes SMM process a multi-package staging
	// directory in mem_W: N independently sealed patch packages are
	// decrypted, verified, and applied under a single world switch,
	// with per-member outcomes published in mem_RW.
	CmdProcessBatch smm.Command = 0x42
	// CmdIntrospect makes SMM verify all applied patches are intact,
	// repairing any tampering it finds (§V-D).
	CmdIntrospect smm.Command = 0x49
	// CmdWatchText makes SMM baseline a masked hash of the kernel text
	// segment; subsequent introspection flags any modification KShot
	// did not make itself (the HyperCheck-style kernel protection the
	// paper builds on).
	CmdWatchText smm.Command = 0x57
)

// mem_RW layout: the key exchange and status mailbox.
const (
	// offEnclavePub: u32 length + enclave salt (helper-written).
	offEnclavePub = 0x0
	// offSMMPub: u32 length + SMM channel nonce (SMM-written).
	offSMMPub = 0x4000
	// offStatus: u32 status + u64 SMI sequence + 32-byte attestation
	// digest (SMM-written; read by the helper/remote server for the
	// DoS-detection handshake of §V-D).
	offStatus = 0x8000
	// offBatchResults: u32 member count + per-member u32 status codes
	// (SMM-written after CmdProcessBatch; read by the helper to learn
	// which batch members were applied, refused, or rejected).
	offBatchResults = 0x8100
)

// Status codes published at offStatus.
const (
	StatusIdle uint32 = iota
	StatusKeyReady
	StatusPatched
	StatusRolledBack
	StatusError
	StatusTampered
	// StatusTargetActive is a per-member batch outcome: the activeness
	// check refused the patch because its target was live on a vCPU.
	// Unlike StatusError it is retryable — nothing about the package
	// was wrong, the machine just paused at an inconvenient moment.
	StatusTargetActive
	// StatusBatchDone is the mailbox summary code after a batch SMI;
	// per-member outcomes are published separately at offBatchResults.
	StatusBatchDone
)

// mem_W layout: u32 length + ciphertext staged by the helper.
const offPackage = 0x0

// Errors surfaced to the trusted caller.
var (
	ErrNoSession = errors.New("smmpatch: no session key (run key exchange first)")
	// ErrTargetActive is returned when the conservative activeness
	// check finds a vCPU executing inside (or returning into) a
	// function the patch would replace. The operator retries; this is
	// the "consistency model / safely choose patch tasks" direction
	// the paper's §VIII leaves as future work.
	ErrTargetActive   = errors.New("smmpatch: target function active on a vCPU")
	ErrVersionSkew    = errors.New("smmpatch: package built for a different kernel version")
	ErrBadIntegrity   = errors.New("smmpatch: payload integrity check failed")
	ErrNothingApplied = errors.New("smmpatch: no patch to roll back")
	ErrDuplicate      = errors.New("smmpatch: patch already applied")
	ErrRollbackOrder  = errors.New("smmpatch: only the most recent patch can be rolled back")
)

// Breakdown records the virtual time spent per stage of the last
// package-processing SMI — the rows of Table III.
type Breakdown struct {
	KeyGen  time.Duration
	Decrypt time.Duration
	Verify  time.Duration
	Apply   time.Duration
}

// appliedFunc journals one installed function patch.
type appliedFunc struct {
	name         string
	trampolineAt uint64
	original     []byte // bytes the trampoline overwrote (nil for new funcs)
	trampoline   []byte
	paddr        uint64
	payloadHash  [kcrypto.DigestSize]byte
	payloadLen   int
}

// appliedGlobal journals one data edit for rollback.
type appliedGlobal struct {
	addr     uint64
	original []byte
	applied  []byte
}

// appliedPatch is one journal entry.
type appliedPatch struct {
	id       string
	funcs    []appliedFunc
	globals  []appliedGlobal
	memXPrev uint64 // allocation cursors before this patch
	dataPrev uint64
}

// Handler is the SMM patching module. Construct with New, register on
// a controller with Register, then drive it by raising SMIs.
type Handler struct {
	res           *mem.Reserved
	kernelVersion string
	place         patch.Placement
	rng           io.Reader
	checkActive   bool
	textBase      uint64
	textSize      uint64
	attKey        []byte
	sessionRoot   []byte
	fi            *faultinject.Set
	obs           *obs.Hooks

	// SMRAM-resident state. nonce is the published, unconsumed channel
	// credential: the next package or batch SMI consumes it and
	// publishes a fresh one on the way out.
	nonce    []byte
	journal  []appliedPatch
	memXUsed uint64
	dataUsed uint64
	seq      uint64

	lastBreakdown Breakdown
	lastBatch     []Breakdown
	tamperEvents  int

	textBaseline    [kcrypto.DigestSize]byte
	textBaselineSet bool
}

// Config for the handler, registered at provisioning time (the paper's
// "configurations of reserved memory ... saved in SMM code in advance
// via the patch server").
type Config struct {
	Reserved      *mem.Reserved
	KernelVersion string

	// Rand is the entropy source for channel nonces (crypto/rand when
	// nil; deterministic in tests).
	Rand io.Reader

	// CheckActiveness enables the conservative pre-patch activeness
	// check: the handler refuses to patch a function while any paused
	// vCPU's RIP lies inside it or any live stack word points into it
	// (kpatch-style stack checking, done from SMM).
	CheckActiveness bool

	// TextBase/TextSize describe the kernel text segment for the
	// CmdWatchText integrity baseline. Zero disables text watching.
	TextBase uint64
	TextSize uint64

	// AttestationKey authenticates the status mailbox: every status
	// record carries HMAC-SHA256(key, code||seq||digest). The mailbox
	// lives in kernel-writable mem_RW, so without the MAC a
	// kernel-level attacker could forge a "patched" confirmation
	// toward the remote server to mask a suppressed deployment. The
	// key is provisioned into SMRAM before lock (and shared with the
	// server out of band). Nil disables authentication.
	AttestationKey []byte

	// SessionRoot is the 32-byte SGX↔SMM channel root (required). The
	// handler publishes a fresh random 32-byte nonce in mem_RW, and
	// the per-package transport key is HMAC(root, nonce, enclaveSalt).
	// The root is provisioned into SMRAM before lock, and core
	// provisions the same root into the enclave, in place of the
	// paper's Diffie-Hellman agreement. The anti-replay discipline is
	// the paper's: one credential per package, regenerated before
	// leaving SMM.
	SessionRoot []byte
}

// New builds the handler.
func New(cfg Config) (*Handler, error) {
	if cfg.Reserved == nil {
		return nil, errors.New("smmpatch: nil reserved region")
	}
	if len(cfg.SessionRoot) != 32 {
		return nil, fmt.Errorf("smmpatch: session root must be 32 bytes, got %d", len(cfg.SessionRoot))
	}
	rng := cfg.Rand
	if rng == nil {
		rng = rand.Reader
	}
	return &Handler{
		res:           cfg.Reserved,
		kernelVersion: cfg.KernelVersion,
		rng:           rng,
		checkActive:   cfg.CheckActiveness,
		textBase:      cfg.TextBase,
		textSize:      cfg.TextSize,
		attKey:        append([]byte(nil), cfg.AttestationKey...),
		sessionRoot:   append([]byte(nil), cfg.SessionRoot...),
		place: patch.Placement{
			MemXBase:      cfg.Reserved.XBase(),
			MemXSize:      cfg.Reserved.X.Size,
			DataAllocBase: cfg.Reserved.RWBase() + 0xC000,
			DataAllocSize: 0x4000,
		},
	}, nil
}

// Placement returns the placement the enclave must prepare against.
func (h *Handler) Placement() patch.Placement { return h.place }

// Cursors returns the current mem_X and data allocation cursors, which
// the enclave needs to prepare the next patch.
func (h *Handler) Cursors() (memX, data uint64) { return h.memXUsed, h.dataUsed }

// SetFaultInjector installs (or, with nil, removes) the fault
// injection set consulted between batch members — the chaos suite's
// stand-in for a firmware failure cutting an SMI short.
func (h *Handler) SetFaultInjector(fi *faultinject.Set) { h.fi = fi }

// SetObserver installs (or, with nil, removes) the observability hooks
// recording per-patch verify/apply spans and applied/rolled-back
// counters from inside the SMI.
func (h *Handler) SetObserver(ob *obs.Hooks) { h.obs = ob }

// observeOutcome emits the in-SMM spans for one processed package:
// T_verify covers the session work done before bytes change (keygen +
// decrypt + verify), T_apply the mutation itself.
func (h *Handler) observeOutcome(id string, bd Breakdown, bytes int, counter string) {
	ob := h.obs
	if ob == nil {
		return
	}
	ob.Span(obs.PhaseVerify, id, -1, bd.KeyGen+bd.Decrypt+bd.Verify, 0)
	ob.Span(obs.PhaseApply, id, -1, bd.Apply, bytes)
	ob.Count(counter, 1)
}

// lastJournalID returns the ID of the newest journal entry — the patch
// a batch member just landed.
func (h *Handler) lastJournalID() string {
	if len(h.journal) == 0 {
		return ""
	}
	return h.journal[len(h.journal)-1].id
}

// journalPayloadBytes sums the payload sizes of the newest journal
// entry — the applied patch a batch member just landed.
func (h *Handler) journalPayloadBytes() int {
	if len(h.journal) == 0 {
		return 0
	}
	n := 0
	for _, f := range h.journal[len(h.journal)-1].funcs {
		n += f.payloadLen
	}
	return n
}

// Applied returns the IDs of currently applied patches, oldest first.
func (h *Handler) Applied() []string {
	out := make([]string, len(h.journal))
	for i, j := range h.journal {
		out[i] = j.id
	}
	return out
}

// TamperEvents returns how many introspection runs found (and
// repaired) tampering.
func (h *Handler) TamperEvents() int { return h.tamperEvents }

// LastBreakdown returns the per-stage virtual times of the most recent
// package-processing SMI.
func (h *Handler) LastBreakdown() Breakdown { return h.lastBreakdown }

// BatchBreakdowns returns the per-member stage times of the most
// recent batch SMI, in staging order. Fixed per-SMI costs (key
// generation) are amortized evenly across the members so the
// per-patch reports still sum to the true SMI cost.
func (h *Handler) BatchBreakdowns() []Breakdown {
	return append([]Breakdown(nil), h.lastBatch...)
}

// Register installs the handler's SMI commands on the controller.
// Must run before the controller is locked.
func (h *Handler) Register(ctrl *smm.Controller) error {
	if err := ctrl.Register(CmdKeyExchange, h.handleKeyExchange); err != nil {
		return err
	}
	if err := ctrl.Register(CmdProcessPackage, h.handlePackage); err != nil {
		return err
	}
	if err := ctrl.Register(CmdProcessBatch, h.handleBatch); err != nil {
		return err
	}
	if err := ctrl.Register(CmdIntrospect, h.handleIntrospect); err != nil {
		return err
	}
	return ctrl.Register(CmdWatchText, h.handleWatchText)
}

// handleKeyExchange generates a fresh channel nonce and publishes it
// in mem_RW. It bootstraps the channel; afterwards every
// package-processing SMI rekeys on its way out.
func (h *Handler) handleKeyExchange(ctx *smm.Context, _ uint64) error {
	if err := h.rekey(ctx); err != nil {
		return h.fail(ctx, err)
	}
	return h.status(ctx, StatusKeyReady, nil)
}

// HasKey reports whether a published, unconsumed channel nonce is
// available.
func (h *Handler) HasKey() bool { return h.nonce != nil }

// rekey generates and publishes a fresh channel nonce (anti-replay: it
// changes before every patch). It charges the model's key-generation
// cost: the virtual time models the paper's per-patch DH step, so
// stage metrics match the paper's protocol even though the host-side
// work is one random read.
func (h *Handler) rekey(ctx *smm.Context) error {
	ctx.Charge(ctx.Model().KeyGen, 0, 0)
	nonce := make([]byte, 32)
	if _, err := io.ReadFull(h.rng, nonce); err != nil {
		return fmt.Errorf("smmpatch: nonce: %w", err)
	}
	if err := h.writeBlob(ctx, h.res.RWBase()+offSMMPub, nonce); err != nil {
		return err
	}
	h.nonce = nonce
	return nil
}

// handlePackage is the main §V-C workflow: fetch → decrypt → verify →
// dispatch (patch or rollback).
func (h *Handler) handlePackage(ctx *smm.Context, _ uint64) error {
	h.lastBreakdown = Breakdown{KeyGen: ctx.Model().KeyGen}

	// Derive the session key from the enclave's salt in mem_RW.
	if h.nonce == nil {
		return h.fail(ctx, ErrNoSession)
	}
	session, err := h.deriveSession(ctx, h.nonce)
	if err != nil {
		return h.fail(ctx, err)
	}
	// Single-use credential: it is consumed whether or not the rest of
	// the operation succeeds (replayed ciphertexts die here). A fresh
	// one is generated and published before leaving SMM — the paper's
	// "dynamically changed before each kernel patch" — so steady-state
	// patching needs no separate key-exchange SMI.
	h.nonce = nil
	defer func() {
		// A rekey failure only delays the next patch (the operator
		// re-bootstraps with CmdKeyExchange); it must not mask the
		// outcome of this one.
		_ = h.rekey(ctx)
	}()

	// Fetch the staged ciphertext from mem_W.
	ciphertext, err := h.readBlob(ctx, h.res.WBase()+offPackage, int(h.res.W.Size))
	if err != nil {
		return h.fail(ctx, fmt.Errorf("smmpatch: fetch: %w", err))
	}

	pkg, err := h.decryptAndVerify(ctx, session, ciphertext, &h.lastBreakdown)
	if err != nil {
		return h.fail(ctx, err)
	}

	switch pkg.Op {
	case patch.OpPatch:
		if err := h.applyPatchCore(ctx, pkg, &h.lastBreakdown); err != nil {
			return h.fail(ctx, err)
		}
		if err := h.rebaselineText(ctx); err != nil {
			return h.fail(ctx, err)
		}
		h.observeOutcome(pkg.ID, h.lastBreakdown, h.journalPayloadBytes(), obs.CtrApplied)
		return h.status(ctx, StatusPatched, attestation(pkg.ID, h.journal))
	case patch.OpRollback:
		id, err := h.rollbackCore(ctx, pkg, &h.lastBreakdown)
		if err != nil {
			return h.fail(ctx, err)
		}
		if err := h.rebaselineText(ctx); err != nil {
			return h.fail(ctx, err)
		}
		h.observeOutcome(id, h.lastBreakdown, 0, obs.CtrRolledBack)
		return h.status(ctx, StatusRolledBack, attestation(id, h.journal))
	default:
		return h.fail(ctx, fmt.Errorf("smmpatch: bad op %d", pkg.Op))
	}
}

// deriveSession reads the enclave's salt from mem_RW and derives the
// package transport session from it and the given channel nonce.
func (h *Handler) deriveSession(ctx *smm.Context, nonce []byte) (*kcrypto.Session, error) {
	salt, err := h.readBlob(ctx, h.res.RWBase()+offEnclavePub, 4096)
	if err != nil {
		return nil, fmt.Errorf("smmpatch: read enclave salt: %w", err)
	}
	return h.sessionFor(nonce, salt)
}

// sessionFor derives a transport session keyed HMAC(root, smmNonce,
// enclaveSalt): both sides contribute fresh entropy per package, so a
// captured package never decrypts under a later nonce.
func (h *Handler) sessionFor(nonce, salt []byte) (*kcrypto.Session, error) {
	if len(salt) == 0 {
		return nil, fmt.Errorf("smmpatch: empty enclave salt")
	}
	session, err := kcrypto.NewSession(kcrypto.DeriveKey(h.sessionRoot, nonce, salt), h.rng)
	if err != nil {
		return nil, fmt.Errorf("smmpatch: session: %w", err)
	}
	return session, nil
}

// decryptAndVerify runs the package through decryption, parsing,
// integrity verification, and the version check, recording the
// Decrypt/Verify stage costs into bd. Stage times are measured as
// deltas of the SMI's charged cost, which — unlike clock spans — stays
// exact when concurrent pipeline goroutines advance the shared clock.
func (h *Handler) decryptAndVerify(ctx *smm.Context, session *kcrypto.Session, ciphertext []byte, bd *Breakdown) (*patch.Package, error) {
	// Decrypt (charged per ciphertext byte, Table III column 1).
	start := ctx.Charged()
	plaintext, err := session.Decrypt(ciphertext)
	ctx.Charge(ctx.Model().DecryptFixed, ctx.Model().DecryptPerByte, len(ciphertext))
	bd.Decrypt = ctx.Charged() - start
	if err != nil {
		return nil, fmt.Errorf("smmpatch: decrypt: %w", err)
	}

	// Parse and verify (Table III column 2).
	start = ctx.Charged()
	pkg, err := patch.Unmarshal(plaintext)
	if err != nil {
		ctx.Charge(ctx.Model().VerifyFixed, ctx.Model().VerifyPerByte, len(plaintext))
		bd.Verify = ctx.Charged() - start
		return nil, fmt.Errorf("smmpatch: parse: %w", err)
	}
	perByte := ctx.Model().VerifyPerByte
	if pkg.HashAlg == kcrypto.HashSDBM {
		perByte = ctx.Model().VerifySDBMPerByte
	}
	for i, f := range pkg.Funcs {
		sum, err := kcrypto.Sum(pkg.HashAlg, f.Payload)
		ctx.Charge(0, perByte, len(f.Payload))
		if err != nil {
			return nil, err
		}
		if sum != pkg.FuncHashes[i] {
			bd.Verify = ctx.Charged() - start
			return nil, fmt.Errorf("%w: function %s", ErrBadIntegrity, f.Name)
		}
	}
	ctx.Charge(ctx.Model().VerifyFixed, 0, 0)
	bd.Verify = ctx.Charged() - start

	if pkg.KernelVersion != h.kernelVersion {
		return nil, fmt.Errorf("%w: package %q, running %q",
			ErrVersionSkew, pkg.KernelVersion, h.kernelVersion)
	}
	return pkg, nil
}

// applyPatchCore performs the §V-C patch steps on a verified package:
// duplicate/activeness checks, bounds checks, transactional mutation,
// and journaling. It records the Apply stage cost in bd but does not
// write the status mailbox or rebaseline the text watch — callers
// (single-package and batch paths) do that per their own protocol.
func (h *Handler) applyPatchCore(ctx *smm.Context, pkg *patch.Package, bd *Breakdown) error {
	for _, j := range h.journal {
		if j.id == pkg.ID {
			return fmt.Errorf("%w: %s", ErrDuplicate, pkg.ID)
		}
	}
	start := ctx.Charged()
	if h.checkActive {
		if err := h.activenessCheck(ctx, pkg); err != nil {
			return err
		}
	}
	entry := appliedPatch{id: pkg.ID, memXPrev: h.memXUsed, dataPrev: h.dataUsed}

	// Bounds-check every write target before touching memory: the
	// package came from outside SMRAM and is untrusted input even
	// after integrity checking.
	memXEnd := h.place.MemXBase + h.place.MemXSize
	for _, f := range pkg.Funcs {
		if f.PAddr < h.place.MemXBase+h.memXUsed || f.PAddr+uint64(len(f.Payload)) > memXEnd {
			return fmt.Errorf("smmpatch: %s payload placement %#x outside free mem_X", f.Name, f.PAddr)
		}
	}

	// The apply is transactional: any failure past the first mutation
	// undoes everything journaled so far, so a bad package can never
	// leave the kernel half-patched (§II's "patching failures" are a
	// motivating reliability concern).
	abort := func(err error) error {
		h.undoPartial(ctx, &entry)
		return err
	}

	// Step two (§V-C): global/data edits.
	for _, g := range pkg.Globals {
		ag := appliedGlobal{addr: g.Addr, applied: g.Init}
		if len(g.Init) > 0 {
			orig := make([]byte, len(g.Init))
			if err := ctx.Read(g.Addr, orig); err != nil {
				return abort(fmt.Errorf("smmpatch: global %s: %w", g.Name, err))
			}
			ag.original = orig
			if err := ctx.Write(g.Addr, g.Init); err != nil {
				return abort(fmt.Errorf("smmpatch: global %s: %w", g.Name, err))
			}
			ctx.Charge(0, ctx.Model().ApplyPerByte, len(g.Init))
		}
		entry.globals = append(entry.globals, ag)
	}

	// Step three: install payloads and trampolines.
	maxCursor := h.memXUsed
	for i, f := range pkg.Funcs {
		if err := ctx.Write(f.PAddr, f.Payload); err != nil {
			return abort(fmt.Errorf("smmpatch: install %s: %w", f.Name, err))
		}
		ctx.Charge(0, ctx.Model().ApplyPerByte, len(f.Payload))

		af := appliedFunc{
			name:        f.Name,
			paddr:       f.PAddr,
			payloadHash: pkg.FuncHashes[i],
			payloadLen:  len(f.Payload),
		}
		if f.TAddr != 0 {
			orig := make([]byte, len(f.TrampolineBytes))
			if err := ctx.Read(f.TrampolineAt, orig); err != nil {
				return abort(fmt.Errorf("smmpatch: journal %s: %w", f.Name, err))
			}
			if err := ctx.Write(f.TrampolineAt, f.TrampolineBytes); err != nil {
				return abort(fmt.Errorf("smmpatch: trampoline %s: %w", f.Name, err))
			}
			ctx.Charge(0, ctx.Model().ApplyPerByte, len(f.TrampolineBytes))
			af.trampolineAt = f.TrampolineAt
			af.original = orig
			af.trampoline = append([]byte(nil), f.TrampolineBytes...)
		}
		entry.funcs = append(entry.funcs, af)

		end := f.PAddr + uint64(len(f.Payload)) - h.place.MemXBase
		if end > maxCursor {
			maxCursor = end
		}
	}
	h.memXUsed = maxCursor
	for _, g := range pkg.Globals {
		if g.Addr >= h.place.DataAllocBase && g.Addr < h.place.DataAllocBase+h.place.DataAllocSize {
			end := g.Addr + uint64(len(g.Init)) - h.place.DataAllocBase
			if end > h.dataUsed {
				h.dataUsed = end
			}
		}
	}
	h.journal = append(h.journal, entry)
	bd.Apply = ctx.Charged() - start
	return nil
}

// undoPartial reverts the mutations a failed apply already journaled
// (best effort — the targets were writable moments ago).
func (h *Handler) undoPartial(ctx *smm.Context, entry *appliedPatch) {
	for i := len(entry.funcs) - 1; i >= 0; i-- {
		f := entry.funcs[i]
		if f.trampolineAt != 0 {
			_ = ctx.Write(f.trampolineAt, f.original)
		}
	}
	for i := len(entry.globals) - 1; i >= 0; i-- {
		g := entry.globals[i]
		if g.original != nil {
			_ = ctx.Write(g.addr, g.original)
		}
	}
}

// rollbackCore undoes the most recent applied patch (§V-C "the last
// patching operation can always be rolled back") and returns its ID
// for attestation. Status/rebaseline are left to the caller.
func (h *Handler) rollbackCore(ctx *smm.Context, pkg *patch.Package, bd *Breakdown) (string, error) {
	start := ctx.Charged()
	if len(h.journal) == 0 {
		return "", ErrNothingApplied
	}
	last := h.journal[len(h.journal)-1]
	if pkg.ID != "" && pkg.ID != last.id {
		return "", fmt.Errorf("%w: want %s, asked %s", ErrRollbackOrder, last.id, pkg.ID)
	}
	// Restore trampoline sites (reverse order) and global edits.
	for i := len(last.funcs) - 1; i >= 0; i-- {
		f := last.funcs[i]
		if f.trampolineAt == 0 {
			continue
		}
		if err := ctx.Write(f.trampolineAt, f.original); err != nil {
			return "", fmt.Errorf("smmpatch: rollback %s: %w", f.name, err)
		}
		ctx.Charge(0, ctx.Model().ApplyPerByte, len(f.original))
	}
	for i := len(last.globals) - 1; i >= 0; i-- {
		g := last.globals[i]
		if g.original != nil {
			if err := ctx.Write(g.addr, g.original); err != nil {
				return "", fmt.Errorf("smmpatch: rollback global: %w", err)
			}
			ctx.Charge(0, ctx.Model().ApplyPerByte, len(g.original))
		}
	}
	h.memXUsed = last.memXPrev
	h.dataUsed = last.dataPrev
	h.journal = h.journal[:len(h.journal)-1]
	bd.Apply = ctx.Charged() - start
	return last.id, nil
}

// handleIntrospect verifies every applied patch is still in place:
// trampolines unmodified and mem_X payloads matching their recorded
// digests. Tampering (e.g. a rootkit reverting the patch, §V-D) is
// repaired and counted.
func (h *Handler) handleIntrospect(ctx *smm.Context, _ uint64) error {
	tampered := false
	for _, j := range h.journal {
		for _, f := range j.funcs {
			if f.trampolineAt != 0 {
				cur := make([]byte, len(f.trampoline))
				if err := ctx.Read(f.trampolineAt, cur); err != nil {
					return h.fail(ctx, err)
				}
				ctx.Charge(0, ctx.Model().VerifyPerByte, len(cur))
				if string(cur) != string(f.trampoline) {
					tampered = true
					if err := ctx.Write(f.trampolineAt, f.trampoline); err != nil {
						return h.fail(ctx, err)
					}
				}
			}
			buf := make([]byte, f.payloadLen)
			if err := ctx.Read(f.paddr, buf); err != nil {
				return h.fail(ctx, err)
			}
			ctx.Charge(0, ctx.Model().VerifyPerByte, len(buf))
			sum, err := kcrypto.Sum(kcrypto.HashSHA256, buf)
			if err != nil {
				return h.fail(ctx, err)
			}
			if sum != f.payloadHash {
				// mem_X should be unreachable to the kernel; payload
				// corruption means something worse than a reversion.
				// There is no pristine copy to restore: report only.
				tampered = true
			}
		}
	}
	// Whole-text integrity sweep against the CmdWatchText baseline:
	// catches kernel text modifications unrelated to applied patches
	// (reported, not repaired — there is no pristine copy in SMRAM).
	if h.textBaselineSet {
		sum, err := h.maskedTextHash(ctx)
		if err != nil {
			return h.fail(ctx, err)
		}
		if sum != h.textBaseline {
			tampered = true
		}
	}
	if tampered {
		h.tamperEvents++
		return h.status(ctx, StatusTampered, attestation("introspect", h.journal))
	}
	return h.status(ctx, StatusIdle, attestation("introspect", h.journal))
}

// activenessCheck refuses to patch functions that are live on some
// vCPU: the saved RIP lies inside the target, or a word of the live
// stack portion points into it (a conservative return-address scan,
// the SMM equivalent of kpatch's stop_machine stack check).
func (h *Handler) activenessCheck(ctx *smm.Context, pkg *patch.Package) error {
	states, err := ctx.VCPUStates()
	if err != nil {
		return err
	}
	inTarget := func(addr uint64) (string, bool) {
		for _, f := range pkg.Funcs {
			if f.TAddr != 0 && addr >= f.TAddr && addr < f.TAddr+f.TSize {
				return f.Name, true
			}
		}
		return "", false
	}
	for i, st := range states {
		if name, hit := inTarget(st.RIP); hit {
			return fmt.Errorf("%w: vCPU %d executing in %s (rip %#x)", ErrTargetActive, i, name, st.RIP)
		}
		// Scan the live stack portion [SP, stack top) for return
		// addresses into any target.
		base := uint64(machine.StackRegionBase) + uint64(i)*machine.StackSize
		top := base + machine.StackSize
		sp := st.Reg[isa.RegSP]
		if sp < base || sp > top {
			continue // vCPU idle or using a foreign stack: nothing live
		}
		for a := sp; a+8 <= top; a += 8 {
			v, err := ctx.ReadU64(a)
			if err != nil {
				return err
			}
			if name, hit := inTarget(v); hit {
				return fmt.Errorf("%w: vCPU %d has a return address into %s at stack %#x",
					ErrTargetActive, i, name, a)
			}
		}
	}
	return nil
}

// handleWatchText baselines a masked hash of the kernel text segment:
// the journaled trampoline sites are zeroed before hashing so KShot's
// own patches never register as tampering.
func (h *Handler) handleWatchText(ctx *smm.Context, _ uint64) error {
	if h.textSize == 0 {
		return h.fail(ctx, errors.New("smmpatch: text watching not configured"))
	}
	sum, err := h.maskedTextHash(ctx)
	if err != nil {
		return h.fail(ctx, err)
	}
	h.textBaseline = sum
	h.textBaselineSet = true
	return h.status(ctx, StatusIdle, sum[:])
}

// rebaselineText refreshes the text-watch baseline after KShot itself
// legitimately modified kernel text (patch applied or rolled back).
func (h *Handler) rebaselineText(ctx *smm.Context) error {
	if !h.textBaselineSet {
		return nil
	}
	sum, err := h.maskedTextHash(ctx)
	if err != nil {
		return err
	}
	h.textBaseline = sum
	return nil
}

// maskedTextHash hashes the kernel text with KShot's own modifications
// masked out.
func (h *Handler) maskedTextHash(ctx *smm.Context) ([kcrypto.DigestSize]byte, error) {
	buf := make([]byte, h.textSize)
	if err := ctx.Read(h.textBase, buf); err != nil {
		return [kcrypto.DigestSize]byte{}, err
	}
	ctx.Charge(0, ctx.Model().VerifyPerByte, len(buf))
	for _, j := range h.journal {
		for _, f := range j.funcs {
			if f.trampolineAt == 0 {
				continue
			}
			off := f.trampolineAt - h.textBase
			for i := 0; i < len(f.trampoline) && off+uint64(i) < uint64(len(buf)); i++ {
				buf[off+uint64(i)] = 0
			}
		}
	}
	return kcrypto.Sum(kcrypto.HashSHA256, buf)
}

// attestation digests the applied-patch set so the remote server can
// confirm, through the status mailbox, what state the machine is in.
func attestation(op string, journal []appliedPatch) []byte {
	var b []byte
	b = append(b, op...)
	for _, j := range journal {
		b = append(b, 0)
		b = append(b, j.id...)
	}
	sum, _ := kcrypto.Sum(kcrypto.HashSHA256, b)
	return sum[:]
}

// status publishes the result of an SMI in the mem_RW mailbox,
// appending an HMAC when an attestation key is provisioned.
func (h *Handler) status(ctx *smm.Context, code uint32, digest []byte) error {
	h.seq++
	buf := make([]byte, statusRecordSize)
	binary.LittleEndian.PutUint32(buf, code)
	binary.LittleEndian.PutUint64(buf[4:], h.seq)
	copy(buf[12:], digest)
	if len(h.attKey) > 0 {
		mac := kcrypto.MAC(h.attKey, buf[:12+kcrypto.DigestSize])
		copy(buf[12+kcrypto.DigestSize:], mac[:])
	}
	return ctx.Write(h.res.RWBase()+offStatus, buf)
}

// statusRecordSize is code(4) + seq(8) + digest(32) + mac(32).
const statusRecordSize = 4 + 8 + kcrypto.DigestSize + kcrypto.DigestSize

// fail publishes an error status and returns the error.
func (h *Handler) fail(ctx *smm.Context, err error) error {
	if serr := h.status(ctx, StatusError, nil); serr != nil {
		return fmt.Errorf("%w (and status write failed: %v)", err, serr)
	}
	return err
}

func (h *Handler) writeBlob(ctx *smm.Context, addr uint64, data []byte) error {
	var lenBuf [4]byte
	binary.LittleEndian.PutUint32(lenBuf[:], uint32(len(data)))
	if err := ctx.Write(addr, lenBuf[:]); err != nil {
		return err
	}
	return ctx.Write(addr+4, data)
}

func (h *Handler) readBlob(ctx *smm.Context, addr uint64, maxLen int) ([]byte, error) {
	var lenBuf [4]byte
	if err := ctx.Read(addr, lenBuf[:]); err != nil {
		return nil, err
	}
	n := int(binary.LittleEndian.Uint32(lenBuf[:]))
	if n <= 0 || n > maxLen {
		return nil, fmt.Errorf("blob at %#x: bad length %d", addr, n)
	}
	out := make([]byte, n)
	if err := ctx.Read(addr+4, out); err != nil {
		return nil, err
	}
	return out, nil
}

// Status is one decoded status mailbox record.
type Status struct {
	Code   uint32
	Seq    uint64
	Digest []byte
	MAC    [kcrypto.DigestSize]byte
}

// Verify reports whether the record's MAC is valid under the
// attestation key.
func (s Status) Verify(key []byte) bool {
	buf := make([]byte, 12+kcrypto.DigestSize)
	binary.LittleEndian.PutUint32(buf, s.Code)
	binary.LittleEndian.PutUint64(buf[4:], s.Seq)
	copy(buf[12:], s.Digest)
	return kcrypto.VerifyMAC(key, buf, s.MAC)
}

// ReadStatus reads the status mailbox at the given privilege — the
// helper application polls this after each SMI.
func ReadStatus(m *mem.Physical, priv mem.Priv, res *mem.Reserved) (code uint32, seq uint64, digest []byte, err error) {
	st, err := ReadStatusRecord(m, priv, res)
	if err != nil {
		return 0, 0, nil, err
	}
	return st.Code, st.Seq, st.Digest, nil
}

// ReadStatusRecord reads the full status record including its MAC.
func ReadStatusRecord(m *mem.Physical, priv mem.Priv, res *mem.Reserved) (Status, error) {
	buf := make([]byte, statusRecordSize)
	if err := m.Read(priv, res.RWBase()+offStatus, buf); err != nil {
		return Status{}, err
	}
	st := Status{
		Code:   binary.LittleEndian.Uint32(buf),
		Seq:    binary.LittleEndian.Uint64(buf[4:]),
		Digest: append([]byte(nil), buf[12:12+kcrypto.DigestSize]...),
	}
	copy(st.MAC[:], buf[12+kcrypto.DigestSize:])
	return st, nil
}

// StageBlob writes a length-prefixed blob at the given privilege: the
// untrusted helper uses it to stage the enclave salt (mem_RW) and the
// encrypted package (mem_W).
func StageBlob(m *mem.Physical, priv mem.Priv, addr uint64, data []byte) error {
	var lenBuf [4]byte
	binary.LittleEndian.PutUint32(lenBuf[:], uint32(len(data)))
	if err := m.Write(priv, addr, lenBuf[:]); err != nil {
		return err
	}
	return m.Write(priv, addr+4, data)
}

// EnclavePubAddr returns where the helper stages the enclave's
// per-package salt.
func EnclavePubAddr(res *mem.Reserved) uint64 { return res.RWBase() + offEnclavePub }

// SMMPubAddr returns where SMM publishes its channel nonce.
func SMMPubAddr(res *mem.Reserved) uint64 { return res.RWBase() + offSMMPub }

// PackageAddr returns where the helper stages the encrypted package.
func PackageAddr(res *mem.Reserved) uint64 { return res.WBase() + offPackage }

// ReadSMMPub reads SMM's published channel nonce at the given
// privilege.
func ReadSMMPub(m *mem.Physical, priv mem.Priv, res *mem.Reserved) ([]byte, error) {
	var lenBuf [4]byte
	if err := m.Read(priv, SMMPubAddr(res), lenBuf[:]); err != nil {
		return nil, err
	}
	n := int(binary.LittleEndian.Uint32(lenBuf[:]))
	if n <= 0 || n > 4096 {
		return nil, fmt.Errorf("smm channel nonce: bad length %d", n)
	}
	out := make([]byte, n)
	if err := m.Read(priv, SMMPubAddr(res)+4, out); err != nil {
		return nil, err
	}
	return out, nil
}
