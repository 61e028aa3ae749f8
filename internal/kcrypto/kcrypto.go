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
//
// The per-package path allocates little. MAC, VerifyMAC and DeriveKey
// compute RFC 2104 HMAC-SHA256 over stack buffers. A Session moves
// bytes without a buffer of its own in either direction: Seal appends
// nonce || ciphertext to the caller's buffer, and encrypts in place a
// plaintext the caller already wrote where its ciphertext goes (the
// enclave marshals a package into its slot of the result block; the
// patch server appends a blob to the response frame it is writing).
// DecryptInPlace decrypts into its own argument: the returned
// plaintext aliases the ciphertext, which no longer holds ciphertext
// afterwards. A caller decrypts in place only a buffer it owns — one
// nothing else reads, and that it does not need again as ciphertext.
package kcrypto

import (
	"crypto/aes"
	"crypto/cipher"
	"crypto/rand"
	"crypto/sha256"
	"crypto/subtle"
	"encoding/binary"
	"fmt"
	"io"
	"slices"
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

// NonceSize is the length of the AES-CTR IV that leads every sealed
// message.
const NonceSize = aes.BlockSize

// Seal appends nonce || AES-CTR(plaintext) to dst, with a fresh nonce,
// and returns the extended slice. To seal in place, the caller writes
// the plaintext where its ciphertext goes, NonceSize bytes past the end
// of dst and within dst's capacity; Seal then draws the nonce into the
// gap and encrypts the plaintext over itself. Any other plaintext must
// not overlap that range. A dst too small for the result grows into a
// fresh array, and the plaintext is then read from where it is.
func (s *Session) Seal(dst, plaintext []byte) ([]byte, error) {
	n := len(dst)
	out := slices.Grow(dst, NonceSize+len(plaintext))[:n+NonceSize+len(plaintext)]
	if _, err := io.ReadFull(s.rng, out[n:n+NonceSize]); err != nil {
		return dst, fmt.Errorf("session seal: %w", err)
	}
	cipher.NewCTR(s.block, out[n:n+NonceSize]).XORKeyStream(out[n+NonceSize:], plaintext)
	return out, nil
}

// DecryptInPlace reverses Seal in place. The plaintext it returns
// aliases ciphertext[NonceSize:]: the call overwrites the caller's
// ciphertext, so the caller must own the buffer, and must copy it first
// if it still needs the ciphertext afterwards.
func (s *Session) DecryptInPlace(ciphertext []byte) ([]byte, error) {
	if len(ciphertext) < NonceSize {
		return nil, fmt.Errorf("session decrypt: ciphertext too short (%d bytes)", len(ciphertext))
	}
	body := ciphertext[NonceSize:]
	cipher.NewCTR(s.block, ciphertext[:NonceSize]).XORKeyStream(body, body)
	return body, nil
}

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
	var buf [sha256.BlockSize + macStackBytes]byte
	return hmacSum(key, append(buf[:sha256.BlockSize], data...))
}

// VerifyMAC reports whether mac is a valid HMAC-SHA256 of data under
// key, in constant time.
func VerifyMAC(key, data []byte, mac [DigestSize]byte) bool {
	want := MAC(key, data)
	return subtle.ConstantTimeCompare(want[:], mac[:]) == 1
}

// macStackBytes is the longest message MAC and DeriveKey hash from a
// stack buffer; a longer one spills to the heap and hashes the same.
const macStackBytes = 256

// hmacSum returns HMAC-SHA256(key, in[sha256.BlockSize:]) per RFC 2104.
// The first block of in is scratch: hmacSum overwrites it with the
// inner padded key, so the inner hash is one sha256.Sum256 over in.
func hmacSum(key, in []byte) [DigestSize]byte {
	var k [sha256.BlockSize]byte
	if len(key) > sha256.BlockSize {
		d := sha256.Sum256(key)
		copy(k[:], d[:])
	} else {
		copy(k[:], key)
	}
	for i, b := range k {
		in[i] = b ^ 0x36
	}
	inner := sha256.Sum256(in)
	var outer [sha256.BlockSize + DigestSize]byte
	for i, b := range k {
		outer[i] = b ^ 0x5c
	}
	copy(outer[sha256.BlockSize:], inner[:])
	return sha256.Sum256(outer[:])
}

// AppendStatusMACInput appends to dst the bytes a status record's MAC
// covers: code (4 bytes), seq (8) and digest, little-endian, the layout
// SMM publishes in its status mailbox. The digest field is always
// DigestSize bytes (a shorter digest is zero-padded), so SMM and the
// patch server MAC and verify the same input.
func AppendStatusMACInput(dst []byte, code uint32, seq uint64, digest []byte) []byte {
	dst = binary.LittleEndian.AppendUint32(dst, code)
	dst = binary.LittleEndian.AppendUint64(dst, seq)
	var d [DigestSize]byte
	copy(d[:], digest)
	return append(dst, d[:]...)
}

// DeriveKey derives a 32-byte subkey from root and the given context
// parts via HMAC-SHA256 (a one-block HKDF-expand). Parts are
// length-prefixed, so distinct part boundaries can never collide. It
// is the ratchet primitive of the SGX↔SMM channel: both endpoints
// hold the System's session root and mix in the fresh per-package
// nonces each side publishes through mem_RW, in place of the paper's
// per-package DH exponentiation, keeping its publish/consume dataflow.
func DeriveKey(root []byte, parts ...[]byte) [DigestSize]byte {
	var buf [sha256.BlockSize + macStackBytes]byte
	in := buf[:sha256.BlockSize]
	for _, p := range parts {
		in = binary.BigEndian.AppendUint64(in, uint64(len(p)))
		in = append(in, p...)
	}
	return hmacSum(root, in)
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
