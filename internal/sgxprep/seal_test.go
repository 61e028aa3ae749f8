package sgxprep

import (
	"bytes"
	"crypto/aes"
	"crypto/cipher"
	"crypto/sha256"
	"encoding/hex"
	"io"
	"math/rand"
	"testing"

	"kshot/internal/kcrypto"
	"kshot/internal/patch"
)

// sealedBlockDigest is the SHA-256 of the result block
// TestSealedMembersMatchCopyingSeal's call returns. The copying
// encoder, which marshaled each package into a buffer of its own,
// encrypted it into another and copied both into the block, returned
// these bytes for the same call and entropy.
const sealedBlockDigest = "f2a2c9a10a82e01bcf6f739369a9be5f81d578420a17e9a4d139dc255ae7e382"

// TestSealedMembersMatchCopyingSeal holds the in-place seal to the
// bytes a copying one writes: with the enclave's entropy fixed, each
// sealed member of a mixed call (patches at chained cursors, a
// rollback, a blob that fails to decrypt) must be nonce ||
// AES-CTR(package) under HMAC(root, nonce, salt), drawing salt and
// nonce from the stream in member order, with the package as
// AppendMarshal writes it alone, and the block as a whole must match
// the copying encoder's digest.
func TestSealedMembersMatchCopyingSeal(t *testing.T) {
	f := newMultiFixture(t, 3)
	members := []Member{
		{Op: patch.OpPatch, Data: f.serverBlob(t, f.bps[0])},
		{Op: patch.OpPatch, Data: []byte("short")},
		{Op: patch.OpPatch, Data: f.serverBlob(t, f.bps[1])},
		{Op: patch.OpRollback, Data: []byte("CVE-MULTI-1")},
		{Op: patch.OpPatch, Data: f.serverBlob(t, f.bps[2])},
	}
	out, err := f.enclave.ECall(FnPrepare, AppendPrepareArgs(nil, &PrepareArgs{Members: members, SMMPub: testNonce, MemXCursor: 64, DataCursor: 8}))
	if err != nil {
		t.Fatal(err)
	}
	results, err := DecodeResults(out)
	if err != nil {
		t.Fatal(err)
	}
	if len(results) != len(members) {
		t.Fatalf("%d results for %d members", len(results), len(members))
	}

	// The fixture's stream gave the server key its first 32 bytes.
	rng := &detRand{r: rand.New(rand.NewSource(11))}
	draw := func(n int) []byte {
		b := make([]byte, n)
		if _, err := io.ReadFull(rng, b); err != nil {
			t.Fatal(err)
		}
		return b
	}
	draw(32)
	curX, curD := uint64(64), uint64(8)
	bps := []*patch.BinaryPatch{f.bps[0], nil, f.bps[1], nil, f.bps[2]}
	for i, m := range members {
		mr := results[i]
		if i == 1 {
			if mr.Err == "" || mr.Ciphertext != nil {
				t.Fatalf("member 1 (a 5-byte blob) = %+v, want a failure", mr)
			}
			continue
		}
		if mr.Err != "" {
			t.Fatalf("member %d failed: %s", i, mr.Err)
		}
		var wire []byte
		if m.Op == patch.OpRollback {
			wire, err = patch.AppendMarshal(nil, &patch.Prepared{ID: string(m.Data), KernelVersion: "4.4"}, patch.OpRollback, kcrypto.HashSHA256)
		} else {
			var p *patch.Prepared
			if p, err = patch.Prepare(bps[i], f.prog.symtab, f.place, curX, curD); err != nil {
				t.Fatal(err)
			}
			curX, curD = curX+p.MemXUsed, curD+p.DataUsed
			wire, err = patch.AppendMarshal(nil, p, patch.OpPatch, kcrypto.HashSHA256)
		}
		if err != nil {
			t.Fatal(err)
		}
		salt := draw(32)
		key := kcrypto.DeriveKey(testRoot, testNonce, salt)
		block, err := aes.NewCipher(key[:])
		if err != nil {
			t.Fatal(err)
		}
		want := append(draw(kcrypto.NonceSize), make([]byte, len(wire))...)
		cipher.NewCTR(block, want[:kcrypto.NonceSize]).XORKeyStream(want[kcrypto.NonceSize:], wire)
		if !bytes.Equal(mr.EnclavePub, salt) {
			t.Errorf("member %d: salt %x, want %x", i, mr.EnclavePub, salt)
		}
		if !bytes.Equal(mr.Ciphertext, want) {
			t.Errorf("member %d: sealed package differs from nonce || AES-CTR(AppendMarshal(...))", i)
		}
	}
	if sum := sha256.Sum256(out); hex.EncodeToString(sum[:]) != sealedBlockDigest {
		t.Errorf("result block digest %x, want the copying encoder's %s", sum, sealedBlockDigest)
	}
}
