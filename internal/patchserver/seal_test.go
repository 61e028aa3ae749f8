package patchserver

import (
	"bufio"
	"bytes"
	"crypto/aes"
	"crypto/cipher"
	"crypto/sha256"
	"encoding/hex"
	"io"
	"math/rand"
	"testing"

	"kshot/internal/kcrypto"
)

// seededRand is a reproducible entropy source.
type seededRand struct{ r *rand.Rand }

func (s seededRand) Read(p []byte) (int, error) { return s.r.Read(p) }

// sealedBlobsDigest is the SHA-256 of the three blobs
// TestSealedResponsesMatchCopyingSeal's burst returns, concatenated.
// The copying encoder, which encrypted each blob into a buffer of its
// own and copied it into the frame, returned these bytes for the same
// requests and entropy, sealed one after another.
const sealedBlobsDigest = "9b7aae17cd85d972719a2ee63c165b2872d42e600fed59ce99603b25250503a7"

// TestSealedResponsesMatchCopyingSeal holds the seal into the response
// frame to the bytes a copying one writes: with the session's entropy
// fixed, a burst built concurrently is sealed in request order, each
// blob nonce || AES-CTR(plaintext artifact) under the session key, and
// the blobs as a whole match the copying encoder's digest.
func TestSealedResponsesMatchCopyingSeal(t *testing.T) {
	srv, _ := newTestServer(t, burstCVEs...)
	key := bytes.Repeat([]byte{0x5A}, 32)
	crypt, err := kcrypto.NewSession(key, seededRand{rand.New(rand.NewSource(21))})
	if err != nil {
		t.Fatal(err)
	}
	info := OSInfo{Version: "4.4", Ftrace: true, Inline: true}
	reqs := make([]request, len(burstCVEs))
	for i, cve := range burstCVEs {
		reqs[i] = request{Kind: kindPatch, CVE: cve}
	}
	resps := make([]response, len(reqs))
	srv.servePatches(&session{info: info, crypt: crypt}, reqs, resps)
	var frames []byte
	for i := range resps {
		frames = appendResponse(frames, &resps[i])
	}

	rng := seededRand{rand.New(rand.NewSource(21))}
	block, err := aes.NewCipher(key)
	if err != nil {
		t.Fatal(err)
	}
	rd := bufio.NewReader(bytes.NewReader(frames))
	blobs := sha256.New()
	for _, cve := range burstCVEs {
		resp := readResponse(t, rd)
		plain, err := srv.PatchPlaintext(info, cve)
		if err != nil {
			t.Fatal(err)
		}
		want := make([]byte, kcrypto.NonceSize+len(plain))
		if _, err := io.ReadFull(rng, want[:kcrypto.NonceSize]); err != nil {
			t.Fatal(err)
		}
		cipher.NewCTR(block, want[:kcrypto.NonceSize]).XORKeyStream(want[kcrypto.NonceSize:], plain)
		if resp.Err != "" || !bytes.Equal(resp.Blob, want) {
			t.Errorf("%s: response blob differs from nonce || AES-CTR(plaintext) (err %q)", cve, resp.Err)
		}
		blobs.Write(resp.Blob)
	}
	if sum := blobs.Sum(nil); hex.EncodeToString(sum) != sealedBlobsDigest {
		t.Errorf("blobs digest %x, want the copying encoder's %s", sum, sealedBlobsDigest)
	}
}
