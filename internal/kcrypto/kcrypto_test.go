package kcrypto

import (
	"bytes"
	"math/rand"
	"testing"
	"testing/quick"
)

// detRand is a deterministic entropy source for reproducible tests.
type detRand struct{ r *rand.Rand }

func newDetRand(seed int64) *detRand { return &detRand{r: rand.New(rand.NewSource(seed))} }

func (d *detRand) Read(p []byte) (int, error) {
	for i := range p {
		p[i] = byte(d.r.Intn(256))
	}
	return len(p), nil
}

func TestSessionRoundTrip(t *testing.T) {
	key := make([]byte, 32)
	s, err := NewSession(key, newDetRand(4))
	if err != nil {
		t.Fatal(err)
	}
	msg := []byte("patch payload bytes")
	ct, err := s.Encrypt(msg)
	if err != nil {
		t.Fatal(err)
	}
	if len(ct) != len(msg)+Overhead {
		t.Errorf("ciphertext length %d, want %d", len(ct), len(msg)+Overhead)
	}
	if bytes.Contains(ct, msg) {
		t.Error("ciphertext contains plaintext")
	}
	pt, err := s.Decrypt(ct)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(pt, msg) {
		t.Error("round trip mismatch")
	}
}

func TestSessionNoncesUnique(t *testing.T) {
	s, _ := NewSession(make([]byte, 32), newDetRand(5))
	c1, _ := s.Encrypt([]byte("same message"))
	c2, _ := s.Encrypt([]byte("same message"))
	if bytes.Equal(c1, c2) {
		t.Error("two encryptions identical — nonce reuse")
	}
}

func TestSessionErrors(t *testing.T) {
	if _, err := NewSession(make([]byte, 16), nil); err == nil {
		t.Error("short key accepted")
	}
	s, _ := NewSession(make([]byte, 32), newDetRand(6))
	if _, err := s.Decrypt([]byte{1, 2, 3}); err == nil {
		t.Error("truncated ciphertext accepted")
	}
}

// Property: decrypt(encrypt(m)) == m for arbitrary payloads, across
// session keys each endpoint derives independently from the shared
// root and the fresh nonce and salt the two sides publish.
func TestQuickEndToEndChannel(t *testing.T) {
	rng := newDetRand(7)
	root := make([]byte, 32)
	rng.Read(root)
	f := func(msg []byte, nonce, salt [32]byte) bool {
		ka := DeriveKey(root, nonce[:], salt[:])
		kb := DeriveKey(append([]byte(nil), root...), nonce[:], salt[:])
		sa, err := NewSession(ka, rng)
		if err != nil {
			return false
		}
		sb, err := NewSession(kb, rng)
		if err != nil {
			return false
		}
		ct, err := sa.Encrypt(msg)
		if err != nil {
			return false
		}
		pt, err := sb.Decrypt(ct)
		return err == nil && bytes.Equal(pt, msg)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 25}); err != nil {
		t.Error(err)
	}
}

// TestDeriveKeyFreshInputsDiffer pins the anti-replay property of the
// channel: a new nonce, salt, or root gives a new key, and the length
// prefixes keep shifted part boundaries from colliding.
func TestDeriveKeyFreshInputsDiffer(t *testing.T) {
	root := bytes.Repeat([]byte{1}, 32)
	base := DeriveKey(root, []byte("nonce-1"), []byte("salt"))
	if len(base) != 32 {
		t.Fatalf("key length %d, want 32", len(base))
	}
	if !bytes.Equal(base, DeriveKey(root, []byte("nonce-1"), []byte("salt"))) {
		t.Error("derivation not deterministic")
	}
	others := map[string][]byte{
		"nonce":    DeriveKey(root, []byte("nonce-2"), []byte("salt")),
		"salt":     DeriveKey(root, []byte("nonce-1"), []byte("salT")),
		"root":     DeriveKey(bytes.Repeat([]byte{2}, 32), []byte("nonce-1"), []byte("salt")),
		"boundary": DeriveKey(root, []byte("nonce-1s"), []byte("alt")),
	}
	for name, k := range others {
		if bytes.Equal(base, k) {
			t.Errorf("changing the %s left the key unchanged", name)
		}
	}
}

func TestSumAlgorithms(t *testing.T) {
	data := []byte("verify me")
	sha, err := Sum(HashSHA256, data)
	if err != nil {
		t.Fatal(err)
	}
	sdbm, err := Sum(HashSDBM, data)
	if err != nil {
		t.Fatal(err)
	}
	if sha == sdbm {
		t.Error("different algorithms produced the same digest")
	}
	if _, err := Sum(HashAlg(99), data); err == nil {
		t.Error("unknown algorithm accepted")
	}
	// Deterministic.
	sha2, _ := Sum(HashSHA256, data)
	if sha != sha2 {
		t.Error("sum not deterministic")
	}
}

func TestSumDetectsCorruption(t *testing.T) {
	data := bytes.Repeat([]byte("abc123"), 100)
	for _, alg := range []HashAlg{HashSHA256, HashSDBM} {
		orig, _ := Sum(alg, data)
		for i := 0; i < len(data); i += 97 {
			mut := append([]byte(nil), data...)
			mut[i] ^= 0x01
			got, _ := Sum(alg, mut)
			if got == orig {
				t.Errorf("%v: single-bit flip at %d undetected", alg, i)
			}
		}
	}
}

func TestSDBMKnownBehaviour(t *testing.T) {
	if SDBM(nil) != 0 {
		t.Error("SDBM(nil) != 0")
	}
	if SDBM([]byte("a")) == SDBM([]byte("b")) {
		t.Error("trivial SDBM collision")
	}
}

func TestHashAlgString(t *testing.T) {
	if HashSHA256.String() != "sha256" || HashSDBM.String() != "sdbm" {
		t.Error("HashAlg.String wrong")
	}
	if HashAlg(42).String() == "" {
		t.Error("unknown HashAlg empty string")
	}
}

func TestMACRoundTrip(t *testing.T) {
	key := []byte("0123456789abcdef0123456789abcdef")
	data := []byte("status record")
	mac := MAC(key, data)
	if !VerifyMAC(key, data, mac) {
		t.Fatal("valid MAC rejected")
	}
	// Any perturbation must fail: data, key, or the MAC itself.
	if VerifyMAC(key, []byte("status recorD"), mac) {
		t.Error("modified data accepted")
	}
	other := MAC([]byte("ffffffffffffffffffffffffffffffff"), data)
	if VerifyMAC(key, data, other) {
		t.Error("MAC under wrong key accepted")
	}
	mut := mac
	mut[0] ^= 1
	if VerifyMAC(key, data, mut) {
		t.Error("bit-flipped MAC accepted")
	}
}

func TestMACDistinctInputsDistinctTags(t *testing.T) {
	key := make([]byte, 32)
	seen := map[[DigestSize]byte]bool{}
	for i := 0; i < 64; i++ {
		m := MAC(key, []byte{byte(i)})
		if seen[m] {
			t.Fatalf("tag collision at %d", i)
		}
		seen[m] = true
	}
}
