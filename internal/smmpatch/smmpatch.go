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
	// CmdProcessPackage makes SMM process the sealed-package directory
	// staged in mem_W: every member (patch or rollback) is decrypted,
	// verified, and executed under a single world switch, with
	// per-member outcomes published in mem_RW. It is the only way a
	// package reaches SMM, for one member as for a batch.
	CmdProcessPackage smm.Command = 0x42
	// CmdIntrospect makes SMM verify all applied patches are intact,
	// repairing any tampering it finds (§V-D).
	CmdIntrospect smm.Command = 0x49
	// CmdWatchText makes SMM baseline a masked hash of the kernel text
	// segment; subsequent introspection flags any modification KShot
	// did not make itself (the HyperCheck-style kernel protection the
	// paper builds on).
	CmdWatchText smm.Command = 0x57
)

// mem_RW layout: the channel nonce and the status mailboxes. Nothing
// the helper writes lives here: each member's enclave salt travels
// with its ciphertext in the write-only mem_W directory.
const (
	// offSMMPub: u32 length + SMM channel nonce (SMM-written).
	offSMMPub = 0x4000
	// offStatus: u32 status + u64 SMI sequence + 32-byte attestation
	// digest (SMM-written; read by the helper/remote server for the
	// DoS-detection handshake of §V-D).
	offStatus = 0x8000
	// offMemberCodes: u32 member count + per-member u32 status codes
	// (SMM-written after CmdProcessPackage; read by the helper to learn
	// which members were applied, rolled back, refused, or rejected).
	offMemberCodes = 0x8100
)

// Status codes published at offStatus.
const (
	StatusIdle uint32 = iota
	StatusKeyReady
	StatusPatched
	StatusRolledBack
	StatusError
	StatusTampered
	// StatusTargetActive is a per-member outcome: the activeness
	// check refused the patch because its target was live on a vCPU.
	// Unlike StatusError it is retryable — nothing about the package
	// was wrong, the machine just paused at an inconvenient moment.
	StatusTargetActive
	// StatusBatchDone is the mailbox summary code after every package
	// SMI; per-member outcomes are published separately at
	// offMemberCodes.
	StatusBatchDone
)

// mem_W layout: the helper stages the KSBT directory at offPackage.
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

// Breakdown records the virtual time one package spent per SMM stage —
// the rows of Table III.
type Breakdown struct {
	KeyGen  time.Duration
	Decrypt time.Duration
	Verify  time.Duration
	Apply   time.Duration
}

// The journal keeps nothing that aliases a package: Unmarshal's
// packages alias the plaintext SMM decrypted, which is dropped after
// the SMI. What the journal needs of a package, it copies or reads
// back from memory.

// trampolineLen is the length of a trampoline, a jmp rel32.
const trampolineLen = isa.LenBranch

// appliedFunc journals one installed function patch.
type appliedFunc struct {
	name         string
	trampolineAt uint64              // 0 for new funcs, which have no trampoline
	original     [trampolineLen]byte // bytes the trampoline overwrote
	trampoline   [trampolineLen]byte
	paddr        uint64
	payloadHash  [kcrypto.DigestSize]byte
	payloadLen   int
}

// appliedGlobal journals one data edit for rollback.
type appliedGlobal struct {
	addr     uint64
	original []byte // bytes the edit overwrote, read from memory; nil when it wrote none
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
	obs           *obs.Hooks

	// SMRAM-resident state. nonce is the published, unconsumed channel
	// credential: the next package SMI consumes it and publishes a
	// fresh one on the way out.
	nonce    []byte
	journal  []appliedPatch
	memXUsed uint64
	dataUsed uint64
	seq      uint64

	outcomes     []Outcome
	tamperEvents int

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

// SetObserver installs (or, with nil, removes) the instrumentation
// handle recording per-patch verify/apply spans and applied/rolled-back
// counters from inside the SMI. Its fault set is consulted between
// batch members — the chaos suite's stand-in for a firmware failure
// cutting an SMI short.
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

// journalPayloadBytes sums the payload sizes of the newest journal
// entry — the patch a directory member just landed.
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

// Outcomes returns the per-member results of the most recent package
// SMI, in staging order (nil if the SMI failed as a whole). Fixed
// per-SMI costs (key generation) are amortized evenly across the
// members so the per-patch reports still sum to the true SMI cost.
func (h *Handler) Outcomes() []Outcome {
	return append([]Outcome(nil), h.outcomes...)
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

// sessionFor derives a transport session keyed HMAC(root, smmNonce,
// enclaveSalt): both sides contribute fresh entropy per package, so a
// captured package never decrypts under a later nonce.
func (h *Handler) sessionFor(nonce, salt []byte) (*kcrypto.Session, error) {
	if len(salt) == 0 {
		return nil, fmt.Errorf("smmpatch: empty enclave salt")
	}
	key := kcrypto.DeriveKey(h.sessionRoot, nonce, salt)
	session, err := kcrypto.NewSession(key[:], h.rng)
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
// The ciphertext is SMM's own copy out of mem_W (parseBatchDir reads
// every member into a fresh slice), so it is decrypted in place.
func (h *Handler) decryptAndVerify(ctx *smm.Context, session *kcrypto.Session, ciphertext []byte, bd *Breakdown) (*patch.Package, error) {
	// Decrypt (charged per ciphertext byte, Table III column 1).
	start := ctx.Charged()
	plaintext, err := session.DecryptInPlace(ciphertext)
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
// write the status mailbox or rebaseline the text watch: the package
// SMI does both once for the whole directory.
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
		ag := appliedGlobal{addr: g.Addr}
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
			// Unmarshal hands out trampolines of exactly trampolineLen
			// bytes.
			if err := ctx.Read(f.TrampolineAt, af.original[:]); err != nil {
				return abort(fmt.Errorf("smmpatch: journal %s: %w", f.Name, err))
			}
			if err := ctx.Write(f.TrampolineAt, f.TrampolineBytes); err != nil {
				return abort(fmt.Errorf("smmpatch: trampoline %s: %w", f.Name, err))
			}
			ctx.Charge(0, ctx.Model().ApplyPerByte, len(f.TrampolineBytes))
			af.trampolineAt = f.TrampolineAt
			copy(af.trampoline[:], f.TrampolineBytes)
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
		f := &entry.funcs[i]
		if f.trampolineAt != 0 {
			_ = ctx.Write(f.trampolineAt, f.original[:])
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
// for attestation. Status/rebaseline are left to the package SMI.
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
		f := &last.funcs[i]
		if f.trampolineAt == 0 {
			continue
		}
		if err := ctx.Write(f.trampolineAt, f.original[:]); err != nil {
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
		for k := range j.funcs {
			f := &j.funcs[k]
			if f.trampolineAt != 0 {
				var cur [trampolineLen]byte
				if err := ctx.Read(f.trampolineAt, cur[:]); err != nil {
					return h.fail(ctx, err)
				}
				ctx.Charge(0, ctx.Model().VerifyPerByte, len(cur))
				if cur != f.trampoline {
					tampered = true
					if err := ctx.Write(f.trampolineAt, f.trampoline[:]); err != nil {
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
	var buf [attestationBuf]byte
	digest := attestation(append(buf[:0], "introspect"...), h.journal)
	if tampered {
		h.tamperEvents++
		return h.status(ctx, StatusTampered, digest[:])
	}
	return h.status(ctx, StatusIdle, digest[:])
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
// It appends the set to op, the SMI's operation label, and hashes the
// result; callers build op in an attestationBuf-byte stack buffer.
func attestation(op []byte, journal []appliedPatch) [kcrypto.DigestSize]byte {
	for _, j := range journal {
		op = append(op, 0)
		op = append(op, j.id...)
	}
	sum, _ := kcrypto.Sum(kcrypto.HashSHA256, op)
	return sum
}

// attestationBuf is the stack buffer an attestation input is built in:
// room for a few dozen applied patches before it spills to the heap.
const attestationBuf = 512

// status publishes the result of an SMI in the mem_RW mailbox,
// appending an HMAC when an attestation key is provisioned.
func (h *Handler) status(ctx *smm.Context, code uint32, digest []byte) error {
	h.seq++
	buf := kcrypto.AppendStatusMACInput(make([]byte, 0, statusRecordSize), code, h.seq, digest)
	var mac [kcrypto.DigestSize]byte
	if len(h.attKey) > 0 {
		mac = kcrypto.MAC(h.attKey, buf)
	}
	return ctx.Write(h.res.RWBase()+offStatus, append(buf, mac[:]...))
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

// Status is one decoded status mailbox record.
type Status struct {
	Code   uint32
	Seq    uint64
	Digest []byte
	MAC    [kcrypto.DigestSize]byte
}

// ReadStatusRecord reads the status mailbox record, MAC included, at
// the given privilege — the helper application reads it after each
// SMI.
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

// ReadSMMPub reads SMM's published channel nonce at the given
// privilege.
func ReadSMMPub(m *mem.Physical, priv mem.Priv, res *mem.Reserved) ([]byte, error) {
	var lenBuf [4]byte
	addr := res.RWBase() + offSMMPub
	if err := m.Read(priv, addr, lenBuf[:]); err != nil {
		return nil, err
	}
	n := int(binary.LittleEndian.Uint32(lenBuf[:]))
	if n <= 0 || n > 4096 {
		return nil, fmt.Errorf("smm channel nonce: bad length %d", n)
	}
	out := make([]byte, n)
	if err := m.Read(priv, addr+4, out); err != nil {
		return nil, err
	}
	return out, nil
}
