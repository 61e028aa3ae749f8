package smmpatch

import (
	"encoding/binary"
	"errors"
	"fmt"
	"time"

	"kshot/internal/faultinject"
	"kshot/internal/mem"
	"kshot/internal/obs"
	"kshot/internal/patch"
	"kshot/internal/smm"
)

// Batched SMI delivery (multi-package staging, §V-C extended): the
// helper stages N independently sealed patch packages into mem_W as a
// directory, then raises a single CmdProcessBatch SMI. The handler
// consumes one SMM channel nonce for the whole batch — each member is
// sealed by the enclave with its own salt against the same published
// nonce — decrypts, verifies, and applies every
// member on the paused machine, and publishes per-member outcome codes
// in mem_RW. One world switch and one key generation are paid for N
// patches instead of N world switches, which is where the pipelined
// ApplyAll gets its OS-pause reduction.
//
// mem_W directory layout at offPackage:
//
//	magic "KSBT" (4) | u32 member count | members...
//	member: u32 salt len | enclave salt | u32 ct len | ciphertext
//
// mem_RW results mailbox at offBatchResults:
//
//	u32 member count | per-member u32 status code
//
// A member failure (bad integrity, duplicate, active target) never
// aborts the batch: the member's code records the outcome and the
// remaining members still apply. Only structural failures — a corrupt
// directory, a missing session key — fail the whole SMI.

// batchMagic marks a mem_W batch staging directory.
const batchMagic = "KSBT"

// MaxBatchMembers bounds a staging directory; the results mailbox and
// SMRAM bookkeeping are sized for it.
const MaxBatchMembers = 64

// ErrBadBatch is returned when the mem_W staging directory is
// structurally invalid.
var ErrBadBatch = errors.New("smmpatch: malformed batch staging directory")

// BatchMember is one sealed package in a staging directory.
type BatchMember struct {
	// EnclavePub is the enclave salt this member was sealed with.
	EnclavePub []byte
	// Ciphertext is the sealed patch package.
	Ciphertext []byte
}

// handleBatch processes a multi-package staging directory under a
// single world switch.
func (h *Handler) handleBatch(ctx *smm.Context, _ uint64) error {
	h.lastBatch = nil
	if h.nonce == nil {
		return h.fail(ctx, ErrNoSession)
	}
	// One channel nonce serves the whole batch and is consumed by it
	// (replay of any member dies with the rekey below).
	nonce := h.nonce
	h.nonce = nil
	defer func() {
		_ = h.rekey(ctx)
	}()

	members, err := h.readBatchDir(ctx)
	if err != nil {
		return h.fail(ctx, err)
	}

	// The single per-SMI key generation is amortized across members so
	// per-patch stage reports still sum to the true SMI cost.
	keyGenShare := ctx.Model().KeyGen / time.Duration(len(members))

	codes := make([]uint32, len(members))
	bds := make([]Breakdown, len(members))
	applied := 0
	for i, m := range members {
		// Injected mid-batch abort: the handler stops between members
		// (a watchdog or internal failure cutting the SMI short). The
		// members already applied stay applied — each apply is
		// individually transactional — and the remainder report
		// errors through the normal mailbox so the helper can retry
		// them per-patch.
		if h.fi.Fire(faultinject.SMMBatchAbort) {
			for j := i; j < len(members); j++ {
				codes[j] = StatusError
			}
			break
		}
		bd := Breakdown{KeyGen: keyGenShare}
		codes[i] = h.processBatchMember(ctx, nonce, m, &bd)
		if codes[i] == StatusPatched {
			applied++
			h.observeOutcome(h.lastJournalID(), bd, h.journalPayloadBytes(), obs.CtrApplied)
		}
		bds[i] = bd
	}
	if applied > 0 {
		if err := h.rebaselineText(ctx); err != nil {
			return h.fail(ctx, err)
		}
	}
	h.lastBatch = bds
	if err := h.writeBatchResults(ctx, codes); err != nil {
		return h.fail(ctx, err)
	}
	op := fmt.Sprintf("batch:%d/%d", applied, len(members))
	return h.status(ctx, StatusBatchDone, attestation(op, h.journal))
}

// processBatchMember runs one member through session derivation,
// decrypt/verify, and the transactional apply, mapping the outcome to
// a mailbox status code. Member-level errors are deliberately not
// propagated: the batch continues.
func (h *Handler) processBatchMember(ctx *smm.Context, nonce []byte, m BatchMember, bd *Breakdown) uint32 {
	session, err := h.sessionFor(nonce, m.EnclavePub)
	if err != nil {
		return StatusError
	}
	pkg, err := h.decryptAndVerify(ctx, session, m.Ciphertext, bd)
	if err != nil {
		return StatusError
	}
	// Batched delivery is patch-only; rollbacks stay LIFO and go
	// through the single-package path.
	if pkg.Op != patch.OpPatch {
		return StatusError
	}
	if err := h.applyPatchCore(ctx, pkg, bd); err != nil {
		if errors.Is(err, ErrTargetActive) {
			return StatusTargetActive
		}
		return StatusError
	}
	return StatusPatched
}

// readBatchDir parses the mem_W staging directory with SMM-privilege
// reads, bounds-checking every length against the region.
func (h *Handler) readBatchDir(ctx *smm.Context) ([]BatchMember, error) {
	base := h.res.WBase() + offPackage
	limit := h.res.WBase() + h.res.W.Size
	return parseBatchDir(ctx.Read, base, limit)
}

// parseBatchDir walks a KSBT staging directory through the given
// privileged reader, bounds-checking every length against [base,
// limit). The directory came from the untrusted helper, so a
// structurally invalid one must fail with ErrBadBatch and can never
// read outside the window or panic — the property FuzzKSBTParse
// exercises.
func parseBatchDir(read func(addr uint64, dst []byte) error, base, limit uint64) ([]BatchMember, error) {
	var hdr [8]byte
	if base+8 > limit {
		return nil, fmt.Errorf("%w: window too small", ErrBadBatch)
	}
	if err := read(base, hdr[:]); err != nil {
		return nil, fmt.Errorf("%w: header: %v", ErrBadBatch, err)
	}
	if string(hdr[:4]) != batchMagic {
		return nil, fmt.Errorf("%w: bad magic %q", ErrBadBatch, hdr[:4])
	}
	count := int(binary.LittleEndian.Uint32(hdr[4:]))
	if count <= 0 || count > MaxBatchMembers {
		return nil, fmt.Errorf("%w: member count %d", ErrBadBatch, count)
	}
	off := base + 8
	readBlob := func() ([]byte, error) {
		var lenBuf [4]byte
		if off+4 > limit || off+4 < off {
			return nil, fmt.Errorf("%w: truncated directory", ErrBadBatch)
		}
		if err := read(off, lenBuf[:]); err != nil {
			return nil, err
		}
		n := uint64(binary.LittleEndian.Uint32(lenBuf[:]))
		if n == 0 || off+4+n < off || off+4+n > limit {
			return nil, fmt.Errorf("%w: blob length %d at %#x", ErrBadBatch, n, off)
		}
		out := make([]byte, n)
		if err := read(off+4, out); err != nil {
			return nil, err
		}
		off += 4 + n
		return out, nil
	}
	members := make([]BatchMember, 0, count)
	for i := 0; i < count; i++ {
		pub, err := readBlob()
		if err != nil {
			return nil, err
		}
		ct, err := readBlob()
		if err != nil {
			return nil, err
		}
		members = append(members, BatchMember{EnclavePub: pub, Ciphertext: ct})
	}
	return members, nil
}

// writeBatchResults publishes per-member outcome codes in mem_RW.
func (h *Handler) writeBatchResults(ctx *smm.Context, codes []uint32) error {
	buf := make([]byte, 4+4*len(codes))
	binary.LittleEndian.PutUint32(buf, uint32(len(codes)))
	for i, c := range codes {
		binary.LittleEndian.PutUint32(buf[4+4*i:], c)
	}
	return ctx.Write(h.res.RWBase()+offBatchResults, buf)
}

// StageBatch writes the multi-package staging directory into mem_W at
// the given (kernel/user) privilege — the untrusted helper's side of
// batched delivery. mem_W is write-only from that privilege, so the
// helper deposits the directory blind, exactly like single packages.
func StageBatch(m *mem.Physical, priv mem.Priv, res *mem.Reserved, members []BatchMember) error {
	if len(members) == 0 || len(members) > MaxBatchMembers {
		return fmt.Errorf("stage batch: %d members (max %d)", len(members), MaxBatchMembers)
	}
	buf := encodeBatchDir(members)
	if uint64(len(buf)) > res.W.Size {
		return fmt.Errorf("stage batch: directory %d bytes exceeds mem_W (%d)", len(buf), res.W.Size)
	}
	return m.Write(priv, res.WBase()+offPackage, buf)
}

// encodeBatchDir serializes members into the KSBT wire layout —
// the exact inverse of parseBatchDir over a flat window.
func encodeBatchDir(members []BatchMember) []byte {
	size := uint64(8)
	for _, bm := range members {
		size += 8 + uint64(len(bm.EnclavePub)) + uint64(len(bm.Ciphertext))
	}
	buf := make([]byte, 0, size)
	buf = append(buf, batchMagic...)
	buf = binary.LittleEndian.AppendUint32(buf, uint32(len(members)))
	for _, bm := range members {
		buf = binary.LittleEndian.AppendUint32(buf, uint32(len(bm.EnclavePub)))
		buf = append(buf, bm.EnclavePub...)
		buf = binary.LittleEndian.AppendUint32(buf, uint32(len(bm.Ciphertext)))
		buf = append(buf, bm.Ciphertext...)
	}
	return buf
}

// ReadBatchResults reads the per-member outcome codes the handler
// published after a CmdProcessBatch SMI.
func ReadBatchResults(m *mem.Physical, priv mem.Priv, res *mem.Reserved) ([]uint32, error) {
	var cntBuf [4]byte
	if err := m.Read(priv, res.RWBase()+offBatchResults, cntBuf[:]); err != nil {
		return nil, err
	}
	n := int(binary.LittleEndian.Uint32(cntBuf[:]))
	if n <= 0 || n > MaxBatchMembers {
		return nil, fmt.Errorf("batch results: bad member count %d", n)
	}
	buf := make([]byte, 4*n)
	if err := m.Read(priv, res.RWBase()+offBatchResults+4, buf); err != nil {
		return nil, err
	}
	codes := make([]uint32, n)
	for i := range codes {
		codes[i] = binary.LittleEndian.Uint32(buf[4*i:])
	}
	return codes, nil
}
