package sgxprep

import (
	"encoding/binary"
	"errors"
	"fmt"
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
// arguments before entering the program.

// EncodePrepareArgs encodes the FnPrepare argument block.
func EncodePrepareArgs(a *PrepareArgs) []byte {
	n := len(a.SMMPub) + 4*binary.MaxVarintLen64
	for _, m := range a.Members {
		n += len(m.Data) + 2*binary.MaxVarintLen64
	}
	b := wire.AppendUvarint(make([]byte, 0, n), uint64(len(a.Members)))
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

// encodeResults encodes the FnPrepare result block: its byte fields
// plus a maximal varint for each length and number size it.
func encodeResults(ms []MemberResult) []byte {
	n := binary.MaxVarintLen64
	for i := range ms {
		m := &ms[i]
		n += len(m.Ciphertext) + len(m.EnclavePub) + len(m.ID) + len(m.Err) + 8*binary.MaxVarintLen64
	}
	b := wire.AppendUvarint(make([]byte, 0, n), uint64(len(ms)))
	for i := range ms {
		m := &ms[i]
		b = wire.AppendBytes(b, m.Ciphertext)
		b = wire.AppendBytes(b, m.EnclavePub)
		b = wire.AppendString(b, m.ID)
		b = wire.AppendUvarint(b, m.MemXUsed)
		b = wire.AppendUvarint(b, m.DataUsed)
		b = wire.AppendUvarint(b, uint64(m.PayloadBytes))
		b = wire.AppendVarint(b, int64(m.Prep))
		b = wire.AppendString(b, m.Err)
	}
	return b
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
