// Package kcrypto implements the cryptographic primitives KShot uses
// between its trusted components: HMAC key derivation for the SGX↔SMM
// shared-memory channel (§V-B/§V-C), an AES-CTR session cipher for
// patch package transport, SHA-256 payload verification and status
// MACs, and the cheaper SDBM hash the paper suggests as an alternative
// verification function (§VI-C2).
//
// The paper agrees each channel key by Diffie-Hellman; this
// reproduction instead derives it from a root both endpoints are
// provisioned with, mixed with a nonce the SMM side regenerates
// before every kernel patch — KShot's defense against replay of
// previously captured patch packages.
package kcrypto

import (
	"crypto/aes"
	"crypto/cipher"
	"crypto/hmac"
	"crypto/rand"
	"crypto/sha256"
	"fmt"
	"io"
)

// Session is a symmetric transport cipher keyed by a derived channel
// key. Each encryption uses a fresh random nonce carried with the
// ciphertext.
type Session struct {
	block cipher.Block
	rng   io.Reader
}

// NewSession builds a session cipher from a 32-byte key.
func NewSession(key []byte, rng io.Reader) (*Session, error) {
	if len(key) != 32 {
		return nil, fmt.Errorf("session: key must be 32 bytes, got %d", len(key))
	}
	if rng == nil {
		rng = rand.Reader
	}
	block, err := aes.NewCipher(key)
	if err != nil {
		return nil, fmt.Errorf("session: %w", err)
	}
	return &Session{block: block, rng: rng}, nil
}

// nonceSize is the AES-CTR IV length prefixed to every ciphertext.
const nonceSize = aes.BlockSize

// Encrypt returns nonce || AES-CTR(plaintext).
func (s *Session) Encrypt(plaintext []byte) ([]byte, error) {
	out := make([]byte, nonceSize+len(plaintext))
	if _, err := io.ReadFull(s.rng, out[:nonceSize]); err != nil {
		return nil, fmt.Errorf("session encrypt: %w", err)
	}
	cipher.NewCTR(s.block, out[:nonceSize]).XORKeyStream(out[nonceSize:], plaintext)
	return out, nil
}

// Decrypt reverses Encrypt.
func (s *Session) Decrypt(ciphertext []byte) ([]byte, error) {
	if len(ciphertext) < nonceSize {
		return nil, fmt.Errorf("session decrypt: ciphertext too short (%d bytes)", len(ciphertext))
	}
	out := make([]byte, len(ciphertext)-nonceSize)
	cipher.NewCTR(s.block, ciphertext[:nonceSize]).XORKeyStream(out, ciphertext[nonceSize:])
	return out, nil
}

// Overhead is the ciphertext expansion of Session.Encrypt.
const Overhead = nonceSize

// HashAlg selects the payload verification hash.
type HashAlg int

// Verification hash algorithms. SHA-256 is the paper's default; SDBM
// is the cheaper alternative it proposes for reducing SMM verification
// time.
const (
	HashSHA256 HashAlg = iota + 1
	HashSDBM
)

// String returns the algorithm name.
func (h HashAlg) String() string {
	switch h {
	case HashSHA256:
		return "sha256"
	case HashSDBM:
		return "sdbm"
	default:
		return fmt.Sprintf("hash(%d)", int(h))
	}
}

// DigestSize is the byte length of Sum's output for any algorithm
// (SDBM digests are zero-padded to the same width so package headers
// have a fixed layout).
const DigestSize = sha256.Size

// Sum computes the selected digest of data.
func Sum(alg HashAlg, data []byte) ([DigestSize]byte, error) {
	switch alg {
	case HashSHA256:
		return sha256.Sum256(data), nil
	case HashSDBM:
		var out [DigestSize]byte
		h := SDBM(data)
		for i := 0; i < 8; i++ {
			out[i] = byte(h >> (8 * i))
		}
		return out, nil
	default:
		return [DigestSize]byte{}, fmt.Errorf("sum: unknown hash algorithm %d", int(alg))
	}
}

// MAC computes HMAC-SHA256(key, data) — used to authenticate the SMM
// status mailbox so a kernel-level attacker cannot forge deployment
// confirmations toward the remote server.
func MAC(key, data []byte) [DigestSize]byte {
	h := hmac.New(sha256.New, key)
	h.Write(data)
	var out [DigestSize]byte
	copy(out[:], h.Sum(nil))
	return out
}

// VerifyMAC reports whether mac is a valid HMAC-SHA256 of data under
// key, in constant time.
func VerifyMAC(key, data []byte, mac [DigestSize]byte) bool {
	want := MAC(key, data)
	return hmac.Equal(want[:], mac[:])
}

// DeriveKey derives a 32-byte subkey from root and the given context
// parts via HMAC-SHA256 (a one-block HKDF-expand). Parts are
// length-prefixed, so distinct part boundaries can never collide. It
// is the ratchet primitive of the SGX↔SMM channel: both endpoints
// hold the System's session root and mix in the fresh per-package
// nonces each side publishes through mem_RW, in place of the paper's
// per-package DH exponentiation, keeping its publish/consume dataflow.
func DeriveKey(root []byte, parts ...[]byte) []byte {
	h := hmac.New(sha256.New, root)
	var lp [8]byte
	for _, p := range parts {
		for i := range lp {
			lp[i] = byte(uint64(len(p)) >> (8 * (7 - i)))
		}
		h.Write(lp[:])
		h.Write(p)
	}
	return h.Sum(nil)
}

// SDBM computes the classic SDBM string hash over data, extended to
// 64 bits. It is fast and adequate for detecting accidental
// corruption, but offers no cryptographic collision resistance — the
// tradeoff the paper's §VI-C2 remark contemplates.
func SDBM(data []byte) uint64 {
	var h uint64
	for _, b := range data {
		h = uint64(b) + (h << 6) + (h << 16) - h
	}
	return h
}
