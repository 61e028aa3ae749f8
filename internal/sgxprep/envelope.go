package sgxprep

import (
	"encoding/binary"
	"errors"
	"fmt"
	"slices"
	"time"

	"kshot/internal/patch"
	"kshot/internal/wire"
)

// The ECALL envelope: the binary encodings of the FnPrepare argument
// and result blocks that cross sgx.Enclave.ECall. Each decoder parses
// bytes the other side of the boundary chose (the enclave parses the
// helper's arguments, the helper parses the enclave's results), so it
// fails closed on any length that overruns the input, any
// non-canonical field, any member op other than patch.OpPatch or
// patch.OpRollback, and any trailing byte. Decoded byte fields alias
// the input: the enclave's copy is private, because ECall copies the
// arguments before entering the program, and the helper's result block
// is the one ECall returned, which nothing else holds.

// AppendPrepareArgs appends the FnPrepare argument block to dst.
func AppendPrepareArgs(dst []byte, a *PrepareArgs) []byte {
	n := len(a.SMMPub) + 4*binary.MaxVarintLen64
	for _, m := range a.Members {
		n += len(m.Data) + 2*binary.MaxVarintLen64
	}
	b := wire.AppendUvarint(slices.Grow(dst, n), uint64(len(a.Members)))
	for _, m := range a.Members {
		b = wire.AppendUvarint(b, uint64(m.Op))
		b = wire.AppendBytes(b, m.Data)
	}
	b = wire.AppendBytes(b, a.SMMPub)
	b = wire.AppendUvarint(b, a.MemXCursor)
	return wire.AppendUvarint(b, a.DataCursor)
}

// DecodePrepareArgs decodes a FnPrepare argument block.
func DecodePrepareArgs(data []byte) (PrepareArgs, error) {
	d := wire.NewDecoder(data)
	var a PrepareArgs
	// A member takes at least two bytes, its op and its data's length,
	// so a count the input cannot hold is refused before allocating.
	n := d.Len()
	if 2*n > len(data) {
		return a, errors.New("sgxprep: member count overruns the input")
	}
	if n > 0 {
		a.Members = make([]Member, n)
		for i := range a.Members {
			op := d.Uvarint()
			if op != uint64(patch.OpPatch) && op != uint64(patch.OpRollback) {
				return PrepareArgs{}, fmt.Errorf("sgxprep: member %d has op %d", i, op)
			}
			a.Members[i] = Member{Op: patch.Op(op), Data: d.Bytes()}
		}
	}
	a.SMMPub = d.Bytes()
	a.MemXCursor = d.Uvarint()
	a.DataCursor = d.Uvarint()
	if err := d.Finish(); err != nil {
		return PrepareArgs{}, err
	}
	return a, nil
}

// The FnPrepare result block is a member count and then one record
// per member: its ciphertext, enclave salt and ID, the mem_X and data
// bytes it uses, its payload bytes, its preparation time and its
// error. The enclave writes each record in place (prepare), so a
// successful member's ciphertext is sealed where it lies.

// resultSize bounds the record of a successful member whose ciphertext
// is ct bytes and whose ID is id bytes: its byte fields plus a maximal
// varint for each length and number. (A failed member's record holds
// no ciphertext, but the text of its error.)
func resultSize(ct, id int) int {
	return ct + 32 + id + 8*binary.MaxVarintLen64
}

// appendResult appends m's whole record: the record of a failed member,
// which carries no ciphertext or salt.
func appendResult(b []byte, m *MemberResult) []byte {
	b = wire.AppendBytes(b, m.Ciphertext)
	b = wire.AppendBytes(b, m.EnclavePub)
	return appendResultTail(b, m)
}

// appendResultTail appends the fields of m's record after its
// ciphertext and salt.
func appendResultTail(b []byte, m *MemberResult) []byte {
	b = wire.AppendString(b, m.ID)
	b = wire.AppendUvarint(b, m.MemXUsed)
	b = wire.AppendUvarint(b, m.DataUsed)
	b = wire.AppendUvarint(b, uint64(m.PayloadBytes))
	b = wire.AppendVarint(b, int64(m.Prep))
	return wire.AppendString(b, m.Err)
}

// DecodeResults decodes a FnPrepare result block.
func DecodeResults(data []byte) ([]MemberResult, error) {
	d := wire.NewDecoder(data)
	var ms []MemberResult
	if n := d.Len(); n > 0 {
		ms = make([]MemberResult, n)
		for i := range ms {
			ms[i] = MemberResult{
				Ciphertext:   d.Bytes(),
				EnclavePub:   d.Bytes(),
				ID:           d.String(),
				MemXUsed:     d.Uvarint(),
				DataUsed:     d.Uvarint(),
				PayloadBytes: d.Int(),
				Prep:         time.Duration(d.Varint()),
				Err:          d.String(),
			}
		}
	}
	if err := d.Finish(); err != nil {
		return nil, err
	}
	return ms, nil
}
