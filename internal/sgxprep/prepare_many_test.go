package sgxprep

import (
	"bytes"
	"fmt"
	"math/rand"
	"testing"

	"kshot/internal/kcrypto"
	"kshot/internal/kernel"
	"kshot/internal/mem"
	"kshot/internal/patch"
	"kshot/internal/sgx"
	"kshot/internal/timing"
)

// multiFixture is a loaded enclave plus n distinct binary patches,
// each touching its own function so they can stack in one batch.
type multiFixture struct {
	prog      *Program
	enclave   *sgx.Enclave
	serverKey []byte
	bps       []*patch.BinaryPatch
	place     patch.Placement
}

func vulnFn(i int) string {
	return fmt.Sprintf(".func probe%d\n    mov r0, r1\n    add r0, r1\n    ret\n.endfunc\n", i)
}

// fixedFn grows with i so the members consume visibly different
// amounts of mem_X — the interesting case for cursor chaining.
func fixedFn(i int) string {
	var b bytes.Buffer
	fmt.Fprintf(&b, ".func probe%d\n    mov r0, r1\n    add r0, r1\n", i)
	for j := 0; j <= i; j++ {
		b.WriteString("    addi r0, 1\n")
	}
	b.WriteString("    ret\n.endfunc\n")
	return b.String()
}

func newMultiFixture(t *testing.T, n int) *multiFixture {
	t.Helper()
	st, err := kernel.BaseTree("4.4")
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < n; i++ {
		st.AddFile(fmt.Sprintf("cve/probe%d.asm", i), vulnFn(i))
	}
	preImg, preUnit, err := st.Build()
	if err != nil {
		t.Fatal(err)
	}
	bps := make([]*patch.BinaryPatch, n)
	for i := 0; i < n; i++ {
		post := st.Clone()
		id := fmt.Sprintf("CVE-MULTI-%d", i)
		if err := post.Apply(kernel.SourcePatch{
			ID:    id,
			Files: map[string]string{fmt.Sprintf("cve/probe%d.asm", i): fixedFn(i)},
		}); err != nil {
			t.Fatal(err)
		}
		postImg, postUnit, err := post.Build()
		if err != nil {
			t.Fatal(err)
		}
		bps[i], err = patch.Build(id, "4.4",
			patch.ImagePair{Img: preImg, Unit: preUnit},
			patch.ImagePair{Img: postImg, Unit: postUnit})
		if err != nil {
			t.Fatal(err)
		}
	}

	rng := &detRand{r: rand.New(rand.NewSource(11))}
	serverKey := make([]byte, 32)
	if _, err := rng.Read(serverKey); err != nil {
		t.Fatal(err)
	}
	place := patch.Placement{
		MemXBase: 0x100000, MemXSize: 1 << 20,
		DataAllocBase: 0x300000, DataAllocSize: 1 << 16,
	}
	prog, err := New(Config{
		ServerKey:     serverKey,
		KernelVersion: "4.4",
		KernelSymbols: preImg.Symbols,
		Placement:     place,
		Model:         timing.Calibrated(),
		Rand:          rng,
		SessionRoot:   testRoot,
	})
	if err != nil {
		t.Fatal(err)
	}
	phys := mem.New(64 << 20)
	plat, err := sgx.NewPlatform(phys, 0x200000, 64*sgx.PageSize)
	if err != nil {
		t.Fatal(err)
	}
	enclave, err := plat.Load(prog, EnclavePages)
	if err != nil {
		t.Fatal(err)
	}
	return &multiFixture{
		prog: prog, enclave: enclave, serverKey: serverKey,
		bps: bps, place: place,
	}
}

func (f *multiFixture) serverBlob(t *testing.T, bp *patch.BinaryPatch) []byte {
	t.Helper()
	plain := patch.Encode(bp)
	sess, err := kcrypto.NewSession(f.serverKey, nil)
	if err != nil {
		t.Fatal(err)
	}
	ct, err := sess.Seal(nil, plain)
	if err != nil {
		t.Fatal(err)
	}
	return ct
}

// open decrypts a sealed member the way the SMM handler would and
// returns the plaintext package.
func (f *multiFixture) open(t *testing.T, ct, enclavePub []byte) *patch.Package {
	t.Helper()
	pkg, err := patch.Unmarshal(openSealed(t, ct, enclavePub))
	if err != nil {
		t.Fatal(err)
	}
	return pkg
}

// TestPrepareManyCursorChaining is the prepare-many property test:
// a FnPrepare over n patch members must chain the allocation cursors
// exactly like n one-member FnPrepare calls whose caller advances
// the cursors by each result's reported deltas — same placements, same
// payloads, no overlap, deltas summing to the final cursor.
func TestPrepareManyCursorChaining(t *testing.T) {
	const n = 6
	f := newMultiFixture(t, n)
	const startX, startD = uint64(192), uint64(64)

	blobs := make([][]byte, n)
	for i, bp := range f.bps {
		blobs[i] = f.serverBlob(t, bp)
	}
	batch := prepareCall(t, f.enclave, &PrepareArgs{
		Members:    patchMembers(blobs...),
		SMMPub:     testNonce,
		MemXCursor: startX,
		DataCursor: startD,
	})
	if len(batch) != n {
		t.Fatalf("members = %d, want %d", len(batch), n)
	}

	// Sequential reference run: same blobs one member per call, the
	// caller chaining cursors by the reported deltas.
	curX, curD := startX, startD
	seq := make([]MemberResult, n)
	for i := range blobs {
		one := prepareCall(t, f.enclave, &PrepareArgs{
			Members:    patchMembers(blobs[i]),
			SMMPub:     testNonce,
			MemXCursor: curX,
			DataCursor: curD,
		})
		if len(one) != 1 || one[0].Err != "" {
			t.Fatalf("one-member call %d: %+v", i, one)
		}
		seq[i] = one[0]
		curX += seq[i].MemXUsed
		curD += seq[i].DataUsed
	}

	type span struct{ lo, hi uint64 }
	var spans []span
	var sumX, sumD uint64
	for i, m := range batch {
		if m.Err != "" {
			t.Fatalf("member %d failed: %s", i, m.Err)
		}
		if m.ID != f.bps[i].ID {
			t.Errorf("member %d ID = %s, want %s", i, m.ID, f.bps[i].ID)
		}
		if m.MemXUsed == 0 {
			t.Errorf("member %d consumed no mem_X", i)
		}
		// Delta and cost parity with the sequential run.
		if m.Prep != seq[i].Prep || m.PayloadBytes != seq[i].PayloadBytes {
			t.Errorf("member %d prep %v over %d bytes, sequential %v over %d",
				i, m.Prep, m.PayloadBytes, seq[i].Prep, seq[i].PayloadBytes)
		}
		if m.MemXUsed != seq[i].MemXUsed || m.DataUsed != seq[i].DataUsed {
			t.Errorf("member %d deltas (%d,%d) differ from sequential (%d,%d)",
				i, m.MemXUsed, m.DataUsed, seq[i].MemXUsed, seq[i].DataUsed)
		}
		bpkg := f.open(t, m.Ciphertext, m.EnclavePub)
		spkg := f.open(t, seq[i].Ciphertext, seq[i].EnclavePub)
		if len(bpkg.Funcs) != len(spkg.Funcs) {
			t.Fatalf("member %d: batch has %d funcs, sequential %d", i, len(bpkg.Funcs), len(spkg.Funcs))
		}
		for j := range bpkg.Funcs {
			bf, sf := bpkg.Funcs[j], spkg.Funcs[j]
			// Identical placement and payload: batching changes the
			// sealing keys, never the prepared patch.
			if bf.PAddr != sf.PAddr || !bytes.Equal(bf.Payload, sf.Payload) {
				t.Errorf("member %d func %d: batch (%#x,%d bytes) vs sequential (%#x,%d bytes)",
					i, j, bf.PAddr, len(bf.Payload), sf.PAddr, len(sf.Payload))
			}
			lo, hi := bf.PAddr, bf.PAddr+uint64(len(bf.Payload))
			if lo < f.place.MemXBase+startX || hi > f.place.MemXBase+f.place.MemXSize {
				t.Errorf("member %d func %d placed [%#x,%#x) outside the chained window", i, j, lo, hi)
			}
			spans = append(spans, span{lo, hi})
		}
		sumX += m.MemXUsed
		sumD += m.DataUsed
	}
	// Payload spans never overlap across members.
	for a := range spans {
		for b := a + 1; b < len(spans); b++ {
			if spans[a].lo < spans[b].hi && spans[b].lo < spans[a].hi {
				t.Errorf("payload spans overlap: [%#x,%#x) and [%#x,%#x)",
					spans[a].lo, spans[a].hi, spans[b].lo, spans[b].hi)
			}
		}
	}
	// Deltas accumulate to exactly the sequential run's final cursor.
	if startX+sumX != curX || startD+sumD != curD {
		t.Errorf("batch consumed (%d,%d), sequential chain ended at (%d,%d) from (%d,%d)",
			sumX, sumD, curX, curD, startX, startD)
	}
}

// TestPrepareManyBadMemberConsumesNothing pins the skip contract the
// SMM side depends on: a failed member reports zero deltas and later
// members place exactly as if it were never in the batch.
func TestPrepareManyBadMemberConsumesNothing(t *testing.T) {
	const n = 3
	f := newMultiFixture(t, n)
	good := [][]byte{f.serverBlob(t, f.bps[0]), f.serverBlob(t, f.bps[2])}
	blobs := [][]byte{good[0], []byte("not a sealed blob"), good[1]}

	batch := prepareCall(t, f.enclave, &PrepareArgs{Members: patchMembers(blobs...), SMMPub: testNonce})
	bad := batch[1]
	if bad.Err == "" {
		t.Fatal("garbage member prepared successfully")
	}
	if bad.MemXUsed != 0 || bad.DataUsed != 0 || len(bad.Ciphertext) != 0 {
		t.Errorf("failed member consumed allocation: %+v", bad)
	}
	// The survivor after the hole sits right after the first member
	// (modulo the 16-byte function placement alignment).
	first := f.open(t, batch[0].Ciphertext, batch[0].EnclavePub)
	third := f.open(t, batch[2].Ciphertext, batch[2].EnclavePub)
	end := first.Funcs[0].PAddr + uint64(len(first.Funcs[0].Payload))
	if want := (end + 15) &^ 15; third.Funcs[0].PAddr != want {
		t.Errorf("member after failed one placed at %#x, want %#x (hole must not consume)",
			third.Funcs[0].PAddr, want)
	}
}

// TestPrepareRollbackMemberConsumesNothing pins how a rollback member
// rides in a call with patches: it seals a rollback command for its
// ID at the model's fixed cost, consumes no cursor, and leaves every
// patch member placed exactly as in the call without it.
func TestPrepareRollbackMemberConsumesNothing(t *testing.T) {
	f := newMultiFixture(t, 2)
	blobs := [][]byte{f.serverBlob(t, f.bps[0]), f.serverBlob(t, f.bps[1])}
	plain := prepareCall(t, f.enclave, &PrepareArgs{Members: patchMembers(blobs...), SMMPub: testNonce})

	// The server blobs decrypt in place inside the enclave's copy of the
	// arguments, so the helper's blobs are reusable.
	members := patchMembers(blobs...)
	members = append(members[:1], Member{Op: patch.OpRollback, Data: []byte("CVE-OLD")}, members[1])
	mixed := prepareCall(t, f.enclave, &PrepareArgs{Members: members, SMMPub: testNonce})
	if len(mixed) != 3 {
		t.Fatalf("members = %d, want 3", len(mixed))
	}
	rb := mixed[1]
	if rb.Err != "" || rb.ID != "CVE-OLD" || rb.MemXUsed != 0 || rb.DataUsed != 0 || rb.PayloadBytes != 0 {
		t.Errorf("rollback member = %+v", rb)
	}
	if want := timing.Calibrated().PrepFixed; rb.Prep != want {
		t.Errorf("rollback member prep = %v, want %v", rb.Prep, want)
	}
	if pkg := f.open(t, rb.Ciphertext, rb.EnclavePub); pkg.Op != patch.OpRollback || pkg.ID != "CVE-OLD" {
		t.Errorf("rollback member package = %+v", pkg)
	}
	for i, j := range []int{0, 2} {
		if mixed[j].Err != "" {
			t.Fatalf("patch member %d failed: %s", j, mixed[j].Err)
		}
		got := f.open(t, mixed[j].Ciphertext, mixed[j].EnclavePub)
		want := f.open(t, plain[i].Ciphertext, plain[i].EnclavePub)
		if got.Op != patch.OpPatch || got.Funcs[0].PAddr != want.Funcs[0].PAddr {
			t.Errorf("patch member %d placed at %#x, want %#x as without the rollback", j, got.Funcs[0].PAddr, want.Funcs[0].PAddr)
		}
	}
}
