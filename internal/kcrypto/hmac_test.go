package kcrypto

import (
	"bytes"
	"crypto/hmac"
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"testing"
)

// refMAC is crypto/hmac's HMAC-SHA256, the oracle MAC is checked
// against.
func refMAC(key, data []byte) []byte {
	h := hmac.New(sha256.New, key)
	h.Write(data)
	return h.Sum(nil)
}

// refDeriveKey is DeriveKey written over crypto/hmac: each part
// prefixed with its big-endian 64-bit length.
func refDeriveKey(root []byte, parts ...[]byte) []byte {
	h := hmac.New(sha256.New, root)
	for _, p := range parts {
		h.Write(binary.BigEndian.AppendUint64(nil, uint64(len(p))))
		h.Write(p)
	}
	return h.Sum(nil)
}

func unhex(t *testing.T, s string) []byte {
	t.Helper()
	b, err := hex.DecodeString(s)
	if err != nil {
		t.Fatal(err)
	}
	return b
}

// TestMACRFC4231 checks MAC against the HMAC-SHA-256 test cases 1–7 of
// RFC 4231. Cases 6 and 7 use a 131-byte key, longer than the SHA-256
// block, which is hashed first; case 5's expected value is truncated
// to 128 bits, so only that prefix is compared.
func TestMACRFC4231(t *testing.T) {
	largeKey := bytes.Repeat([]byte{0xaa}, 131)
	cases := []struct {
		name      string
		key, data []byte
		want      string
	}{
		{"1", bytes.Repeat([]byte{0x0b}, 20), []byte("Hi There"),
			"b0344c61d8db38535ca8afceaf0bf12b881dc200c9833da726e9376c2e32cff7"},
		{"2", []byte("Jefe"), []byte("what do ya want for nothing?"),
			"5bdcc146bf60754e6a042426089575c75a003f089d2739839dec58b964ec3843"},
		{"3", bytes.Repeat([]byte{0xaa}, 20), bytes.Repeat([]byte{0xdd}, 50),
			"773ea91e36800e46854db8ebd09181a72959098b3ef8c122d9635514ced565fe"},
		{"4", unhex(t, "0102030405060708090a0b0c0d0e0f10111213141516171819"), bytes.Repeat([]byte{0xcd}, 50),
			"82558a389a443c0ea4cc819899f2083a85f0faa3e578f8077a2e3ff46729665b"},
		{"5", bytes.Repeat([]byte{0x0c}, 20), []byte("Test With Truncation"),
			"a3b6167473100ee06e0c796c2955552b"},
		{"6", largeKey, []byte("Test Using Larger Than Block-Size Key - Hash Key First"),
			"60e431591ee0b67f0d8a26aacbf5b77f8e0bc6213728c5140546040f0ee37f54"},
		{"7", largeKey, []byte("This is a test using a larger than block-size key and a larger than block-size data. The key needs to be hashed before being used by the HMAC algorithm."),
			"9b09ffa71b942fcb27635fbcd5b0e944bfdc63644f0713938a7f51535c3a35e2"},
	}
	for _, c := range cases {
		want := unhex(t, c.want)
		got := MAC(c.key, c.data)
		if !bytes.Equal(got[:len(want)], want) {
			t.Errorf("test case %s: MAC = %x, want %x", c.name, got[:len(want)], want)
		}
	}
}

// macDataLens straddle the stack buffer MAC and DeriveKey hash from,
// and the SHA-256 block and padding boundaries.
var macDataLens = []int{0, 1, 55, 56, 63, 64, 65, 119, 120, 128, 200,
	macStackBytes - 1, macStackBytes, macStackBytes + 1, 2 * macStackBytes, 1000}

// TestMACMatchesCryptoHMAC compares MAC, VerifyMAC and DeriveKey with
// crypto/hmac for every key length from 0 to 140 bytes, across data
// lengths on both sides of the stack buffer.
func TestMACMatchesCryptoHMAC(t *testing.T) {
	rng := newDetRand(9)
	for keyLen := 0; keyLen <= 140; keyLen++ {
		key := make([]byte, keyLen)
		rng.Read(key)
		for _, n := range macDataLens {
			data := make([]byte, n)
			rng.Read(data)
			got, want := MAC(key, data), refMAC(key, data)
			if !bytes.Equal(got[:], want) {
				t.Fatalf("key %d bytes, data %d bytes: MAC = %x, crypto/hmac = %x", keyLen, n, got, want)
			}
			if !VerifyMAC(key, data, got) {
				t.Fatalf("key %d bytes, data %d bytes: VerifyMAC rejects a valid MAC", keyLen, n)
			}
			// Split the data into two parts: the length prefixes push
			// the message across the stack buffer at a different point.
			half := n / 2
			dk := DeriveKey(key, data[:half], data[half:])
			if ref := refDeriveKey(key, data[:half], data[half:]); !bytes.Equal(dk[:], ref) {
				t.Fatalf("key %d bytes, parts %d+%d bytes: DeriveKey = %x, reference = %x", keyLen, half, n-half, dk, ref)
			}
		}
	}
	if k := DeriveKey(nil); !bytes.Equal(k[:], refDeriveKey(nil)) {
		t.Error("DeriveKey with no parts differs from the reference")
	}
}

// FuzzMAC is the differential fuzz target for the stack-buffer HMAC:
// for any key and data, MAC equals crypto/hmac's HMAC-SHA256,
// VerifyMAC accepts it and rejects it with one bit flipped, and
// DeriveKey over the data split at any point matches its reference.
func FuzzMAC(f *testing.F) {
	f.Add([]byte("Jefe"), []byte("what do ya want for nothing?"), uint(4))
	f.Add(bytes.Repeat([]byte{0xaa}, 131), bytes.Repeat([]byte{0xdd}, macStackBytes+1), uint(100))
	f.Add([]byte{}, []byte{}, uint(0))
	f.Fuzz(func(t *testing.T, key, data []byte, split uint) {
		got, want := MAC(key, data), refMAC(key, data)
		if !bytes.Equal(got[:], want) {
			t.Fatalf("MAC = %x, crypto/hmac = %x", got, want)
		}
		if !VerifyMAC(key, data, got) {
			t.Fatal("VerifyMAC rejects a valid MAC")
		}
		flipped := got
		flipped[split%DigestSize] ^= 1
		if VerifyMAC(key, data, flipped) {
			t.Fatal("VerifyMAC accepts a bit-flipped MAC")
		}
		at := 0
		if len(data) > 0 {
			at = int(split % uint(len(data)+1))
		}
		dk := DeriveKey(key, data[:at], data[at:])
		if ref := refDeriveKey(key, data[:at], data[at:]); !bytes.Equal(dk[:], ref) {
			t.Fatalf("DeriveKey = %x, reference = %x", dk, ref)
		}
	})
}

// TestMACAllocs pins the heap-free HMAC: with a 32-byte key and inputs
// of up to 256 bytes, MAC, VerifyMAC and DeriveKey allocate nothing.
func TestMACAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("the race detector changes allocation counts")
	}
	key := bytes.Repeat([]byte{7}, 32)
	data := bytes.Repeat([]byte{9}, 256)
	mac := MAC(key, data)
	// Two parts whose length-prefixed message is exactly 256 bytes.
	nonce, salt := data[:120], data[120:240]
	for name, fn := range map[string]func(){
		"MAC":       func() { mac = MAC(key, data) },
		"VerifyMAC": func() { _ = VerifyMAC(key, data, mac) },
		"DeriveKey": func() { _ = DeriveKey(key, nonce, salt) },
	} {
		if n := testing.AllocsPerRun(100, fn); n != 0 {
			t.Errorf("%s: %v allocations per call, want 0", name, n)
		}
	}
}
