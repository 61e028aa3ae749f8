package sgxprep

import (
	"encoding/binary"
	"time"

	"kshot/internal/wire"
)

// The ECALL envelope: the binary encodings of the argument and result
// blocks that cross sgx.Enclave.ECall. Each decoder parses bytes the
// other side of the boundary chose (the enclave parses the helper's
// arguments, the helper parses the enclave's results), so it fails
// closed on any length that overruns the input, any non-canonical
// field and any trailing byte. Decoded byte fields alias the input:
// the enclave's copy is private, because ECall copies the arguments
// before entering the program.

// EncodeRollbackArgs encodes the FnPrepareRollback argument block.
func EncodeRollbackArgs(a *RollbackArgs) []byte {
	return wire.AppendBytes(wire.AppendString(nil, a.ID), a.SMMPub)
}

// DecodeRollbackArgs decodes a FnPrepareRollback argument block.
func DecodeRollbackArgs(data []byte) (*RollbackArgs, error) {
	d := wire.NewDecoder(data)
	a := &RollbackArgs{ID: d.String(), SMMPub: d.Bytes()}
	if err := d.Finish(); err != nil {
		return nil, err
	}
	return a, nil
}

// EncodeBatchPrepareArgs encodes the FnPrepareBatch argument block.
func EncodeBatchPrepareArgs(a *BatchPrepareArgs) []byte {
	n := len(a.SMMPub) + 4*binary.MaxVarintLen64
	for _, blob := range a.ServerBlobs {
		n += len(blob) + binary.MaxVarintLen64
	}
	b := wire.AppendUvarint(make([]byte, 0, n), uint64(len(a.ServerBlobs)))
	for _, blob := range a.ServerBlobs {
		b = wire.AppendBytes(b, blob)
	}
	b = wire.AppendBytes(b, a.SMMPub)
	b = wire.AppendUvarint(b, a.MemXCursor)
	return wire.AppendUvarint(b, a.DataCursor)
}

// DecodeBatchPrepareArgs decodes a FnPrepareBatch argument block.
func DecodeBatchPrepareArgs(data []byte) (*BatchPrepareArgs, error) {
	d := wire.NewDecoder(data)
	a := &BatchPrepareArgs{}
	if n := d.Len(); n > 0 {
		a.ServerBlobs = make([][]byte, n)
		for i := range a.ServerBlobs {
			a.ServerBlobs[i] = d.Bytes()
		}
	}
	a.SMMPub = d.Bytes()
	a.MemXCursor = d.Uvarint()
	a.DataCursor = d.Uvarint()
	if err := d.Finish(); err != nil {
		return nil, err
	}
	return a, nil
}

func appendResult(b []byte, r *Result) []byte {
	b = wire.AppendBytes(b, r.Ciphertext)
	b = wire.AppendBytes(b, r.EnclavePub)
	b = wire.AppendString(b, r.ID)
	b = wire.AppendUvarint(b, r.MemXUsed)
	b = wire.AppendUvarint(b, r.DataUsed)
	return wire.AppendUvarint(b, uint64(r.PayloadBytes))
}

func decodeResultFields(d *wire.Decoder) Result {
	return Result{
		Ciphertext:   d.Bytes(),
		EnclavePub:   d.Bytes(),
		ID:           d.String(),
		MemXUsed:     d.Uvarint(),
		DataUsed:     d.Uvarint(),
		PayloadBytes: d.Int(),
	}
}

// resultSize bounds the encoding of r: its byte fields plus a maximal
// varint for each length and number.
func resultSize(r *Result) int {
	return len(r.Ciphertext) + len(r.EnclavePub) + len(r.ID) + 6*binary.MaxVarintLen64
}

// encodeResult encodes the FnPrepareRollback result block.
func encodeResult(r *Result) []byte {
	return appendResult(make([]byte, 0, resultSize(r)), r)
}

// DecodeResult decodes a FnPrepareRollback result block.
func DecodeResult(data []byte) (*Result, error) {
	d := wire.NewDecoder(data)
	r := decodeResultFields(d)
	if err := d.Finish(); err != nil {
		return nil, err
	}
	return &r, nil
}

// encodeBatchResult encodes the FnPrepareBatch result block.
func encodeBatchResult(br *BatchResult) []byte {
	n := binary.MaxVarintLen64
	for i := range br.Members {
		m := &br.Members[i]
		n += resultSize(&m.Result) + len(m.Err) + 2*binary.MaxVarintLen64
	}
	b := wire.AppendUvarint(make([]byte, 0, n), uint64(len(br.Members)))
	for i := range br.Members {
		m := &br.Members[i]
		b = appendResult(b, &m.Result)
		b = wire.AppendVarint(b, int64(m.Prep))
		b = wire.AppendString(b, m.Err)
	}
	return b
}

// DecodeBatchResult decodes a FnPrepareBatch result block.
func DecodeBatchResult(data []byte) (*BatchResult, error) {
	d := wire.NewDecoder(data)
	br := &BatchResult{}
	if n := d.Len(); n > 0 {
		br.Members = make([]BatchMemberResult, n)
		for i := range br.Members {
			m := &br.Members[i]
			m.Result = decodeResultFields(d)
			m.Prep = time.Duration(d.Varint())
			m.Err = d.String()
		}
	}
	if err := d.Finish(); err != nil {
		return nil, err
	}
	return br, nil
}
