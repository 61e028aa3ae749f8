package kernel

import (
	"testing"

	"kshot/internal/isa"
	"kshot/internal/machine"
	"kshot/internal/mem"
)

// bootVersion builds and boots a base kernel of the given version.
func bootVersion(t *testing.T, version string) *Kernel {
	t.Helper()
	st, err := BaseTree(version)
	if err != nil {
		t.Fatal(err)
	}
	img, _, err := st.Build()
	if err != nil {
		t.Fatal(err)
	}
	m, err := machine.New(machine.Config{NumVCPUs: 2})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(m.Stop)
	k, err := Boot(m, img, st.Config(), mem.ReservedLayout{})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := k.Call(0, "kernel_init"); err != nil {
		t.Fatal(err)
	}
	return k
}

func TestBootAndSyscalls(t *testing.T) {
	k := bootVersion(t, "3.14")

	got, err := k.Call(0, "sys_compute", 10, 4)
	if err != nil {
		t.Fatal(err)
	}
	if want := uint64((10+4)*(10-4) + 10); got != want {
		t.Errorf("sys_compute = %d, want %d", got, want)
	}

	for i := 0; i < 5; i++ {
		if _, err := k.Call(0, "schedule_tick"); err != nil {
			t.Fatal(err)
		}
	}
	j, err := k.ReadGlobal("jiffies")
	if err != nil || j != 5 {
		t.Errorf("jiffies = %d, %v", j, err)
	}
}

func TestVersionsDiffer(t *testing.T) {
	k314 := bootVersion(t, "3.14")
	k44 := bootVersion(t, "4.4")

	v1, err := k314.Call(0, "sys_version")
	if err != nil {
		t.Fatal(err)
	}
	v2, err := k44.Call(0, "sys_version")
	if err != nil {
		t.Fatal(err)
	}
	if v1 == v2 {
		t.Error("versions report identical codes")
	}
	// 4.4-only syscall exists only there.
	if _, err := k44.Call(0, "sys_feature_probe"); err != nil {
		t.Errorf("4.4 feature probe: %v", err)
	}
	if _, err := k314.Call(0, "sys_feature_probe"); err == nil {
		t.Error("3.14 kernel has 4.4 syscall")
	}
	// Same symbol, different addresses across versions (layout shifts).
	a1, err1 := k314.FuncAddr("sys_compute")
	a2, err2 := k44.FuncAddr("sys_compute")
	if err1 != nil || err2 != nil {
		t.Fatal(err1, err2)
	}
	if a1 == a2 {
		t.Log("note: sys_compute happens to coincide across versions")
	}

	if _, err := BaseTree("5.0"); err == nil {
		t.Error("unsupported version accepted")
	}
}

func TestMemSyscallsUseHeap(t *testing.T) {
	k := bootVersion(t, "4.4")
	// Fill a heap source buffer, copy it, checksum it via syscalls.
	src, dst := uint64(HeapBase), uint64(HeapBase+4096)
	for i := uint64(0); i < 8; i++ {
		if err := k.M.Mem.WriteU64(mem.PrivKernel, src+8*i, i+1); err != nil {
			t.Fatal(err)
		}
	}
	if _, err := k.Call(0, "sys_memmove", dst, src, 8); err != nil {
		t.Fatal(err)
	}
	sum, err := k.Call(0, "sys_checksum", dst, 8)
	if err != nil {
		t.Fatal(err)
	}
	if sum != 36 {
		t.Errorf("checksum = %d, want 36", sum)
	}
	ops, err := k.ReadGlobal("sys_ops")
	if err != nil || ops != 2 {
		t.Errorf("sys_ops = %d, %v; want 2", ops, err)
	}
}

// TestCallAllocs pins the guest path's zero-allocation contract end
// to end: once warm, a syscall's hop onto its vCPU and every load,
// store, push and pop it executes allocate nothing.
func TestCallAllocs(t *testing.T) {
	k := bootVersion(t, "4.4")
	call := func() {
		if _, err := k.Call(0, "sys_checksum", HeapBase, 8); err != nil {
			t.Fatal(err)
		}
	}
	call()
	if n := testing.AllocsPerRun(50, call); n != 0 {
		t.Errorf("warm sys_checksum call: %v allocations, want 0", n)
	}
}

func TestFtraceConfigAffectsBinary(t *testing.T) {
	// The same source built with and without ftrace yields different
	// function addresses/sizes — why the patch server needs the exact
	// config.
	st, err := BaseTree("3.14")
	if err != nil {
		t.Fatal(err)
	}
	imgTraced, _, err := st.Build()
	if err != nil {
		t.Fatal(err)
	}
	cfg := st.Config()
	cfg.Ftrace = false
	st2 := NewSourceTree(cfg)
	for _, f := range st.Files() {
		src, _ := st.File(f)
		st2.AddFile(f, src)
	}
	imgPlain, _, err := st2.Build()
	if err != nil {
		t.Fatal(err)
	}
	a, _ := imgTraced.Symbols.Lookup("sys_compute")
	b, _ := imgPlain.Symbols.Lookup("sys_compute")
	if a.Size == b.Size {
		t.Error("ftrace made no difference to function size")
	}
	if !a.Traced || b.Traced {
		t.Error("traced flags wrong")
	}
}

func TestSourceTreePatching(t *testing.T) {
	st, err := BaseTree("3.14")
	if err != nil {
		t.Fatal(err)
	}
	orig := st.Clone()

	patched := `
; kernel/compat.asm (3.14, patched)
.func legacy_ioctl_shim
    mov r0, r1
    addi r0, 7
    ret
.endfunc
`
	p := SourcePatch{ID: "TEST-1", Files: map[string]string{"kernel/compat.asm": patched}}
	if err := st.Apply(p); err != nil {
		t.Fatal(err)
	}
	// Clone must be unaffected.
	if a, _ := orig.File("kernel/compat.asm"); a == patched {
		t.Error("Apply mutated the clone source")
	}
	// File order unchanged (layout compatibility).
	if got, want := st.Files(), orig.Files(); len(got) != len(want) {
		t.Error("file order changed")
	} else {
		for i := range got {
			if got[i] != want[i] {
				t.Errorf("file %d reordered: %s vs %s", i, got[i], want[i])
			}
		}
	}
	// Patch touching unknown file rejected.
	bad := SourcePatch{ID: "TEST-2", Files: map[string]string{"no/such.asm": ""}}
	if err := st.Apply(bad); err == nil {
		t.Error("patch for unknown file accepted")
	}

	// Patched tree builds and behaves differently.
	img, _, err := st.Build()
	if err != nil {
		t.Fatal(err)
	}
	m, err := machine.New(machine.Config{NumVCPUs: 1})
	if err != nil {
		t.Fatal(err)
	}
	defer m.Stop()
	k, err := Boot(m, img, st.Config(), mem.ReservedLayout{})
	if err != nil {
		t.Fatal(err)
	}
	got, err := k.Call(0, "legacy_ioctl_shim", 5)
	if err != nil {
		t.Fatal(err)
	}
	if got != 12 {
		t.Errorf("patched shim(5) = %d, want 12", got)
	}
}

func TestReplaceImage(t *testing.T) {
	k := bootVersion(t, "3.14")
	before, err := k.Call(0, "sys_version")
	if err != nil {
		t.Fatal(err)
	}

	st, err := BaseTree("4.4")
	if err != nil {
		t.Fatal(err)
	}
	img, _, err := st.Build()
	if err != nil {
		t.Fatal(err)
	}
	k.M.Pause()
	err = k.ReplaceImage(img)
	k.M.Resume()
	if err != nil {
		t.Fatal(err)
	}
	after, err := k.Call(0, "sys_version")
	if err != nil {
		t.Fatal(err)
	}
	if before == after {
		t.Error("whole-kernel replacement did not change behaviour")
	}
	// 4.4 syscalls now exist.
	if _, err := k.Call(0, "sys_feature_probe"); err != nil {
		t.Errorf("post-replace feature probe: %v", err)
	}
}

func TestGlobalAccessors(t *testing.T) {
	k := bootVersion(t, "3.14")
	if err := k.WriteGlobal("jiffies", 123); err != nil {
		t.Fatal(err)
	}
	v, err := k.ReadGlobal("jiffies")
	if err != nil || v != 123 {
		t.Errorf("jiffies = %d, %v", v, err)
	}
	if _, err := k.ReadGlobal("nosuch"); err == nil {
		t.Error("missing global read succeeded")
	}
	if err := k.WriteGlobal("nosuch", 1); err == nil {
		t.Error("missing global write succeeded")
	}
	if _, err := k.ReadGlobal("sys_compute"); err == nil {
		t.Error("function read as global succeeded")
	}
	if _, err := k.FuncAddr("jiffies"); err == nil {
		t.Error("global resolved as function")
	}
}

func TestFuncBytesReflectLiveMemory(t *testing.T) {
	k := bootVersion(t, "3.14")
	before, err := k.FuncBytes("sys_compute")
	if err != nil {
		t.Fatal(err)
	}
	// A kernel-privilege writer (e.g. a rootkit) changes live text;
	// FuncBytes must see it.
	addr, _ := k.FuncAddr("sys_compute")
	if err := k.M.Mem.Write(mem.PrivKernel, addr, []byte{byte(isa.OpRet)}); err != nil {
		t.Fatal(err)
	}
	after, err := k.FuncBytes("sys_compute")
	if err != nil {
		t.Fatal(err)
	}
	if after[0] == before[0] {
		t.Error("live text change not visible")
	}
}

func TestBuildErrors(t *testing.T) {
	st := NewSourceTree(BuildConfig{Version: "x"})
	st.AddFile("bad.asm", "garbage")
	if _, _, err := st.Build(); err == nil {
		t.Error("bad source built")
	}
	st2 := NewSourceTree(BuildConfig{})
	st2.AddFile("a.asm", ".func f\nret\n.endfunc")
	st2.AddFile("b.asm", ".func f\nret\n.endfunc")
	if _, _, err := st2.Build(); err == nil {
		t.Error("duplicate function across files built")
	}
}

func TestKernelTracedSymbols(t *testing.T) {
	k := bootVersion(t, "3.14")
	// With ftrace on, regular functions carry the prologue; notrace
	// helpers do not.
	s, ok := k.Symbols().Lookup("sys_compute")
	if !ok || !s.Traced {
		t.Error("sys_compute not traced")
	}
	h, ok := k.Symbols().Lookup("memcpy_words")
	if !ok || h.Traced {
		t.Error("memcpy_words unexpectedly traced")
	}
	fentry, ok := k.Symbols().Lookup("__fentry__")
	if !ok {
		t.Fatal("no __fentry__")
	}
	fb, err := k.FuncBytes("sys_compute")
	if err != nil {
		t.Fatal(err)
	}
	// The live text opens with `call __fentry__`.
	inst, n, err := isa.Decode(fb)
	if err != nil || inst.Op != isa.OpCall || n != isa.FtracePrologueLen || s.Addr+uint64(n)+uint64(inst.Imm) != fentry.Addr {
		t.Errorf("prologue signature missing in live text: %v %d %v", inst, n, err)
	}
}

func TestVFSSubsystem(t *testing.T) {
	k := bootVersion(t, "4.4")
	// Opening paths populates the dentry cache and the open counter.
	fd1, err := k.Call(0, "sys_open", 7, 3)
	if err != nil {
		t.Fatal(err)
	}
	fd2, err := k.Call(0, "sys_open", 7, 4)
	if err != nil {
		t.Fatal(err)
	}
	if fd1 == fd2 {
		t.Error("different paths hashed identically")
	}
	// Deterministic hashing.
	again, err := k.Call(0, "sys_open", 7, 3)
	if err != nil || again != fd1 {
		t.Errorf("rehash = %d, want %d (%v)", again, fd1, err)
	}
	open, err := k.ReadGlobal("open_files")
	if err != nil || open != 3 {
		t.Errorf("open_files = %d, %v", open, err)
	}
	if _, err := k.Call(0, "sys_close"); err != nil {
		t.Fatal(err)
	}
	open, _ = k.ReadGlobal("open_files")
	if open != 2 {
		t.Errorf("open_files after close = %d", open)
	}
	// Read accounting accumulates.
	if _, err := k.Call(0, "sys_read_acct", 100); err != nil {
		t.Fatal(err)
	}
	total, err := k.Call(0, "sys_read_acct", 28)
	if err != nil || total != 128 {
		t.Errorf("vfs_reads = %d, %v", total, err)
	}
}

func TestSocketBacklog(t *testing.T) {
	k := bootVersion(t, "4.4")
	// Fill the 8-slot backlog; the ninth packet drops with ENOBUFS.
	for i := uint64(1); i <= 8; i++ {
		v, err := k.Call(0, "sock_enqueue", i)
		if err != nil || v != 0 {
			t.Fatalf("enqueue %d = %d, %v", i, v, err)
		}
	}
	v, err := k.Call(0, "sock_enqueue", 99)
	if err != nil || v != 105 {
		t.Fatalf("overflow enqueue = %d, %v; want ENOBUFS", v, err)
	}
	drops, _ := k.ReadGlobal("sock_drops")
	if drops != 1 {
		t.Errorf("sock_drops = %d", drops)
	}
	sum, err := k.Call(0, "sock_drain")
	if err != nil || sum != 36 {
		t.Errorf("drain = %d, %v; want 36", sum, err)
	}
	// Queue empty again.
	if v, _ := k.Call(0, "sock_enqueue", 5); v != 0 {
		t.Error("enqueue after drain failed")
	}
}

func TestAuditTrail(t *testing.T) {
	k := bootVersion(t, "3.14")
	v, err := k.Call(0, "sys_privileged_op", 42, 10)
	if err != nil || v != 20 {
		t.Fatalf("privileged op = %d, %v", v, err)
	}
	if _, err := k.Call(0, "sys_privileged_op", 43, 1); err != nil {
		t.Fatal(err)
	}
	events, _ := k.ReadGlobal("audit_events")
	last, _ := k.ReadGlobal("audit_last")
	if events != 2 || last != 43 {
		t.Errorf("audit events=%d last=%d", events, last)
	}
}
