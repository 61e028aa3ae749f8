package sgxprep

import (
	"bytes"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"runtime"
	"testing"

	"kshot/internal/patch"
)

// envelopes re-encodes each ECALL's argument block after decoding it,
// in function-number order.
var envelopes = []struct {
	fn     int
	decode func([]byte) (func() []byte, error)
}{
	{FnPrepare, func(b []byte) (func() []byte, error) {
		a, err := DecodePrepareArgs(b)
		return func() []byte { return AppendPrepareArgs(nil, &a) }, err
	}},
}

// envelopeSeeds are well-formed argument blocks plus the malformed
// shapes the decoder must refuse.
func envelopeSeeds() [][]byte {
	rollback := Member{Op: patch.OpRollback, Data: []byte("CVE-FIX")}
	return [][]byte{
		AppendPrepareArgs(nil, &PrepareArgs{Members: patchMembers([]byte("a"), nil, []byte("bc")), SMMPub: testNonce, MemXCursor: 1 << 20}),
		AppendPrepareArgs(nil, &PrepareArgs{Members: patchMembers([]byte("sealed blob")), SMMPub: testNonce, MemXCursor: 192, DataCursor: 64}),
		{0x80, 0x00},                   // non-minimal uvarint
		{0xff, 0xff, 0xff, 0xff, 0x0f}, // count or length far past the input
		{0x02, 0x01},                   // truncated field
		{0x00, 0x00, 0x00, 0x00, 0x00}, // trailing byte after a zero PrepareArgs
		{0x04, 0x01, 0x00, 0x01, 0x00}, // more members than the input can hold
		AppendPrepareArgs(nil, &PrepareArgs{Members: []Member{rollback}, SMMPub: testNonce}),
		AppendPrepareArgs(nil, &PrepareArgs{Members: append(patchMembers([]byte("sealed blob")), rollback), SMMPub: testNonce, MemXCursor: 192}),
		AppendPrepareArgs(nil, &PrepareArgs{Members: []Member{{Op: patch.OpRollback + 1, Data: []byte("CVE-FIX")}}, SMMPub: testNonce}),
	}
}

// TestGenerateEnvelopeCorpus regenerates the committed seed corpus under
// testdata/fuzz/FuzzECallEnvelope from envelopeSeeds. Skipped unless
// GEN_FUZZ_CORPUS is set, so the corpus only changes deliberately.
func TestGenerateEnvelopeCorpus(t *testing.T) {
	if os.Getenv("GEN_FUZZ_CORPUS") == "" {
		t.Skip("set GEN_FUZZ_CORPUS=1 to regenerate the committed seed corpus")
	}
	dir := filepath.Join("testdata", "fuzz", "FuzzECallEnvelope")
	if err := os.MkdirAll(dir, 0o755); err != nil {
		t.Fatal(err)
	}
	for i, seed := range envelopeSeeds() {
		body := fmt.Sprintf("go test fuzz v1\n[]byte(%q)\n", seed)
		if err := os.WriteFile(filepath.Join(dir, fmt.Sprintf("seed-%02d", i)), []byte(body), 0o644); err != nil {
			t.Fatal(err)
		}
	}
}

// decodeAllocBound is the most a decode of n input bytes may allocate:
// byte fields alias the input, so the only input-sized allocation is
// the slice of 32-byte members, one per two input bytes at most, plus
// a fixed amount for the argument struct and its error.
func decodeAllocBound(n int) uint64 { return 1024 + 24*uint64(n) }

// allocated reports the bytes run allocates. The fuzzing harness
// allocates in the background, so a reading over limit is taken
// twice more and the least of the three kept: an input that really
// over-allocates does so every time.
func allocated(run func(), limit uint64) uint64 {
	var before, after runtime.MemStats
	least := uint64(math.MaxUint64)
	for i := 0; i < 3 && least > limit; i++ {
		runtime.ReadMemStats(&before)
		run()
		runtime.ReadMemStats(&after)
		least = min(least, after.TotalAlloc-before.TotalAlloc)
	}
	return least
}

// FuzzECallEnvelope feeds arbitrary bytes across the ECALL boundary as
// every function's argument block. The enclave must not panic; a
// decode may not allocate beyond decodeAllocBound; and every block a
// decoder accepts must re-encode to exactly the input, so no two
// encodings mean the same arguments.
func FuzzECallEnvelope(f *testing.F) {
	fx := newFixture(f, 0)
	for _, seed := range envelopeSeeds() {
		f.Add(seed)
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		for _, env := range envelopes {
			var encode func() []byte
			var err error
			limit := decodeAllocBound(len(data))
			if grew := allocated(func() { encode, err = env.decode(data) }, limit); grew > limit {
				t.Errorf("fn %d: decoding %d bytes allocated %d", env.fn, len(data), grew)
			}
			if err == nil {
				if again := encode(); !bytes.Equal(again, data) {
					t.Errorf("fn %d: accepted %x re-encodes as %x", env.fn, data, again)
				}
			}
			_, _ = fx.enclave.ECall(env.fn, data)
		}
	})
}
