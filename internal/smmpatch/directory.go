package smmpatch

import (
	"encoding/binary"
	"errors"
	"fmt"
	"slices"
	"strconv"
	"sync"
	"time"

	"kshot/internal/faultinject"
	"kshot/internal/mem"
	"kshot/internal/obs"
	"kshot/internal/patch"
	"kshot/internal/smm"
)

// Package delivery (§V-C, batched): the helper stages one or more
// independently sealed packages into mem_W as a directory, then raises
// a CmdProcessPackage SMI. The handler consumes one SMM channel nonce
// for the whole directory — each member is sealed by the enclave with
// its own salt against the same published nonce — decrypts, verifies,
// and executes every member on the paused machine, and publishes
// per-member outcome codes in mem_RW. A single patch or rollback is a
// one-member directory; N patches pay one world switch and one key
// generation instead of N, which is where the pipelined ApplyAll gets
// its OS-pause reduction.
//
// mem_W directory layout at offPackage:
//
//	magic "KSBT" (4) | u32 member count | members...
//	member: u32 salt len | enclave salt | u32 ct len | ciphertext
//
// mem_RW results mailbox at offMemberCodes:
//
//	u32 member count | per-member u32 status code
//
// The salt rides in write-only mem_W with its ciphertext, so the kernel
// can neither read it nor pair a stale one with later staging. A member
// failure (bad integrity, duplicate, active target, rollback order)
// never aborts the directory: the member's code and Outcome record it
// and the remaining members still run. Only structural failures — a
// corrupt directory, a missing session key — fail the whole SMI. The
// summary status record is StatusBatchDone for every package SMI.

// batchMagic marks a mem_W staging directory.
const batchMagic = "KSBT"

// MaxBatchMembers bounds a staging directory; the results mailbox and
// SMRAM bookkeeping are sized for it.
const MaxBatchMembers = 64

// ErrBadBatch is returned when the mem_W staging directory is
// structurally invalid.
var ErrBadBatch = errors.New("smmpatch: malformed batch staging directory")

// errCutShort is the outcome of members an aborted SMI never reached.
var errCutShort = errors.New("smmpatch: SMI cut short before this member")

// BatchMember is one sealed package in a staging directory.
type BatchMember struct {
	// EnclavePub is the enclave salt this member was sealed with.
	EnclavePub []byte
	// Ciphertext is the sealed patch or rollback package.
	Ciphertext []byte
}

// Outcome is one member's result from a package SMI: its stage times
// and, when it did not land, the typed error (ErrDuplicate,
// ErrTargetActive, ErrRollbackOrder, ...) behind its status code.
type Outcome struct {
	Breakdown
	Err error
}

// handlePackage processes the mem_W staging directory under a single
// world switch: fetch → decrypt → verify → dispatch (patch or
// rollback) per member.
func (h *Handler) handlePackage(ctx *smm.Context, _ uint64) error {
	h.outcomes = nil
	if h.nonce == nil {
		return h.fail(ctx, ErrNoSession)
	}
	// Single-use credential: one nonce serves the whole directory and
	// is consumed whether or not the rest of the SMI succeeds (replayed
	// ciphertexts die here). A fresh one is published before leaving
	// SMM — the paper's "dynamically changed before each kernel patch"
	// — so steady-state patching needs no separate key-exchange SMI. A
	// rekey failure only delays the next package (the operator
	// re-bootstraps with CmdKeyExchange); it must not mask this one.
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
	outs := make([]Outcome, len(members))
	changed := 0
	for i, m := range members {
		// Injected abort: the handler stops between members (a watchdog
		// or internal failure cutting the SMI short). The members
		// already executed stay executed — each is individually
		// transactional — and the remainder report errors through the
		// normal mailbox so the helper can redeliver them.
		if _, ok := h.obs.Fault(faultinject.SMMBatchAbort); ok {
			for j := i; j < len(members); j++ {
				codes[j] = StatusError
				outs[j].Err = errCutShort
			}
			break
		}
		outs[i].KeyGen = keyGenShare
		codes[i], outs[i].Err = h.processMember(ctx, nonce, m, &outs[i].Breakdown)
		if outs[i].Err == nil {
			changed++
		}
	}
	if changed > 0 {
		if err := h.rebaselineText(ctx); err != nil {
			return h.fail(ctx, err)
		}
	}
	if err := h.writeMemberCodes(ctx, codes); err != nil {
		return h.fail(ctx, err)
	}
	h.outcomes = outs
	// The operation label is "batch:<changed>/<members>".
	var buf [attestationBuf]byte
	op := strconv.AppendInt(append(buf[:0], "batch:"...), int64(changed), 10)
	op = strconv.AppendInt(append(op, '/'), int64(len(members)), 10)
	digest := attestation(op, h.journal)
	return h.status(ctx, StatusBatchDone, digest[:])
}

// processMember runs one member through session derivation,
// decrypt/verify, and its transactional patch or rollback, returning
// the mailbox status code and, on failure, the typed error. The error
// is the member's alone: the directory continues.
func (h *Handler) processMember(ctx *smm.Context, nonce []byte, m BatchMember, bd *Breakdown) (uint32, error) {
	session, err := h.sessionFor(nonce, m.EnclavePub)
	if err != nil {
		return StatusError, err
	}
	pkg, err := h.decryptAndVerify(ctx, session, m.Ciphertext, bd)
	if err != nil {
		return StatusError, err
	}
	switch pkg.Op {
	case patch.OpPatch:
		if err := h.applyPatchCore(ctx, pkg, bd); err != nil {
			if errors.Is(err, ErrTargetActive) {
				return StatusTargetActive, err
			}
			return StatusError, err
		}
		h.observeOutcome(pkg.ID, *bd, h.journalPayloadBytes(), obs.CtrApplied)
		return StatusPatched, nil
	case patch.OpRollback:
		id, err := h.rollbackCore(ctx, pkg, bd)
		if err != nil {
			return StatusError, err
		}
		h.observeOutcome(id, *bd, 0, obs.CtrRolledBack)
		return StatusRolledBack, nil
	default:
		return StatusError, fmt.Errorf("smmpatch: bad op %d", pkg.Op)
	}
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
	// Whatever read fills escapes (read is a func value), so the header
	// and every length prefix share one small buffer.
	hdr := make([]byte, 8)
	if base+8 > limit {
		return nil, fmt.Errorf("%w: window too small", ErrBadBatch)
	}
	if err := read(base, hdr); err != nil {
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
	lenBuf := hdr[:4]
	readBlob := func() ([]byte, error) {
		if off+4 > limit || off+4 < off {
			return nil, fmt.Errorf("%w: truncated directory", ErrBadBatch)
		}
		if err := read(off, lenBuf); err != nil {
			return nil, err
		}
		n := uint64(binary.LittleEndian.Uint32(lenBuf))
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

// writeMemberCodes publishes per-member outcome codes in mem_RW.
func (h *Handler) writeMemberCodes(ctx *smm.Context, codes []uint32) error {
	buf := make([]byte, 4+4*len(codes))
	binary.LittleEndian.PutUint32(buf, uint32(len(codes)))
	for i, c := range codes {
		binary.LittleEndian.PutUint32(buf[4+4*i:], c)
	}
	return ctx.Write(h.res.RWBase()+offMemberCodes, buf)
}

// StageBatch writes the staging directory into mem_W at the given
// (kernel/user) privilege — the untrusted helper's side of package
// delivery. mem_W is write-only from that privilege, so the helper
// deposits the directory blind, in one write.
func StageBatch(m *mem.Physical, priv mem.Priv, res *mem.Reserved, members []BatchMember) error {
	if len(members) == 0 || len(members) > MaxBatchMembers {
		return fmt.Errorf("stage batch: %d members (max %d)", len(members), MaxBatchMembers)
	}
	if size := batchDirSize(members); size > res.W.Size {
		return fmt.Errorf("stage batch: directory %d bytes exceeds mem_W (%d)", size, res.W.Size)
	}
	bp := dirBufs.Get().(*[]byte)
	*bp = appendBatchDir((*bp)[:0], members)
	err := m.Write(priv, res.WBase()+offPackage, *bp)
	dirBufs.Put(bp)
	return err
}

// dirBufs recycles StageBatch's directory buffers. The mem_W write
// copies the directory out, so a buffer is free again once it returns;
// staging stays one helper write, one consult of the mem_W fault
// points, without a fresh buffer per package SMI.
var dirBufs = sync.Pool{New: func() any { return new([]byte) }}

// batchDirSize is the encoded length of a directory of members.
func batchDirSize(members []BatchMember) uint64 {
	size := uint64(8)
	for _, bm := range members {
		size += 8 + uint64(len(bm.EnclavePub)) + uint64(len(bm.Ciphertext))
	}
	return size
}

// appendBatchDir appends members to buf in the KSBT wire layout — the
// exact inverse of parseBatchDir over a flat window.
func appendBatchDir(buf []byte, members []BatchMember) []byte {
	buf = slices.Grow(buf, int(batchDirSize(members)))
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

// ReadMemberCodes reads the per-member outcome codes the handler
// published after a CmdProcessPackage SMI.
func ReadMemberCodes(m *mem.Physical, priv mem.Priv, res *mem.Reserved) ([]uint32, error) {
	var cntBuf [4]byte
	if err := m.Read(priv, res.RWBase()+offMemberCodes, cntBuf[:]); err != nil {
		return nil, err
	}
	n := int(binary.LittleEndian.Uint32(cntBuf[:]))
	if n <= 0 || n > MaxBatchMembers {
		return nil, fmt.Errorf("batch results: bad member count %d", n)
	}
	buf := make([]byte, 4*n)
	if err := m.Read(priv, res.RWBase()+offMemberCodes+4, buf); err != nil {
		return nil, err
	}
	codes := make([]uint32, n)
	for i := range codes {
		codes[i] = binary.LittleEndian.Uint32(buf[4*i:])
	}
	return codes, nil
}
