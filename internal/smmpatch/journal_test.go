package smmpatch

import (
	"bytes"
	"testing"

	"kshot/internal/kcrypto"
	"kshot/internal/kernel"
	"kshot/internal/mem"
	"kshot/internal/patch"
	"kshot/internal/smm"
)

// cmdApplyOwned applies the package in a buffer the test owns, so the
// test can overwrite the bytes Unmarshal aliased once the SMI is over.
const cmdApplyOwned smm.Command = 0x7A

// TestJournalOwnsItsBytes applies a package with a global edit and a
// trampoline from a buffer the test owns, then overwrites that buffer,
// which the package's payload, trampoline and init aliased. The
// journal must not have kept any of them: an introspection pass must
// restore the trampoline the package carried, and a rollback must
// leave kernel text and data frame-for-frame as they were before the
// apply.
func TestJournalOwnsItsBytes(t *testing.T) {
	var plaintext []byte
	r := newRig(t, func(ctrl *smm.Controller, h *Handler) {
		err := ctrl.Register(cmdApplyOwned, func(ctx *smm.Context, _ uint64) error {
			pkg, err := patch.Unmarshal(plaintext)
			if err != nil {
				return err
			}
			var bd Breakdown
			return h.applyPatchCore(ctx, pkg, &bd)
		})
		if err != nil {
			t.Fatal(err)
		}
	})

	p := r.preparedPatch(t, "RIG-OWN")
	canary, ok := r.preImg.Img.Symbols.Lookup("gadget_canary")
	if !ok {
		t.Fatal("gadget_canary not in the rig kernel")
	}
	init := []byte{1, 2, 3, 4, 5, 6, 7, 8}
	p.Globals = append(p.Globals, patch.PreparedGlobal{Name: "gadget_canary", Addr: canary.Addr, Init: init})
	tramp := p.Funcs[0]
	if tramp.TAddr == 0 {
		t.Fatal("the rig patch carries no trampoline")
	}
	wantTramp := bytes.Clone(tramp.TrampolineBytes)
	var err error
	if plaintext, err = patch.AppendMarshal(nil, p, patch.OpPatch, kcrypto.HashSHA256); err != nil {
		t.Fatal(err)
	}

	snap := r.m.Mem.Snapshot()
	if err := r.ctrl.Trigger(cmdApplyOwned, 0); err != nil {
		t.Fatal(err)
	}
	if v, err := r.k.ReadGlobal("gadget_canary"); err != nil || v != 0x0807060504030201 {
		t.Fatalf("global after apply = %#x, %v", v, err)
	}
	for i := range plaintext {
		plaintext[i] = 0xCC
	}

	// A rootkit reverts the trampoline; introspection restores it from
	// the journal.
	if err := r.m.Mem.Write(mem.PrivKernel, tramp.TrampolineAt, bytes.Repeat([]byte{0x90}, len(wantTramp))); err != nil {
		t.Fatal(err)
	}
	if err := r.ctrl.Trigger(CmdIntrospect, 0); err != nil {
		t.Fatal(err)
	}
	got := make([]byte, len(wantTramp))
	if err := r.m.Mem.Read(mem.PrivSMM, tramp.TrampolineAt, got); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, wantTramp) {
		t.Errorf("introspection restored trampoline %x, want %x", got, wantTramp)
	}

	rb, err := rollbackWire("RIG-OWN")
	if err != nil {
		t.Fatal(err)
	}
	r.sealPackage(t, rb)
	if err := r.process(t); err != nil {
		t.Fatalf("rollback: %v", err)
	}
	for _, seg := range []struct {
		name       string
		base, size uint64
	}{
		{"text", kernel.TextBase, kernel.TextRegionSize},
		{"data", kernel.DataBase, kernel.DataRegionSize},
	} {
		dirty, err := r.m.Mem.DiffFramesIn(snap, seg.base, seg.size)
		if err != nil {
			t.Fatal(err)
		}
		if len(dirty) != 0 {
			t.Errorf("kernel %s frames %v differ from the pre-apply snapshot after rollback", seg.name, dirty)
		}
	}
}
