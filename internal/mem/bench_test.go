package mem_test

import (
	"testing"

	"kshot/internal/isa"
	"kshot/internal/mem"
)

// BenchmarkMemAccess measures the memory system under its two real
// consumers: the raw read/write path through region validation, sharded
// locking, and the frame store ("stream"), and a patched kernel
// function executing on top of it under each vCPU engine
// ("workload-under-patch"). The latter pair is the block-dispatch
// engine's headline number: the same trampoline-patched function, the
// same virtual steps, decode-switch oracle vs predecoded blocks.
func BenchmarkMemAccess(b *testing.B) {
	b.Run("stream", benchStream)
	b.Run("workload-under-patch/oracle", func(b *testing.B) { benchWorkloadUnderPatch(b, true) })
	b.Run("workload-under-patch/blocks", func(b *testing.B) { benchWorkloadUnderPatch(b, false) })
}

func benchStream(b *testing.B) {
	m := mem.New(256 << 20)
	if _, err := m.Map("ram", 0, 64<<20, mem.Perms{Kernel: mem.PermRW}); err != nil {
		b.Fatal(err)
	}
	buf := make([]byte, 4096)
	for i := range buf {
		buf[i] = byte(i)
	}
	b.SetBytes(int64(len(buf) * 2))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		addr := uint64(i%1024) * 4096
		if err := m.Write(mem.PrivKernel, addr, buf); err != nil {
			b.Fatal(err)
		}
		if err := m.Read(mem.PrivKernel, addr, buf); err != nil {
			b.Fatal(err)
		}
	}
}

// workloadSrc is a small syscall-shaped kernel function — argument
// validation, a bounded loop of loads/stores over a table, an
// accumulator — plus the fixed version a patch would install.
const workloadSrc = `
.global table 128
.func compute_fixed
    movi r0, 0
    movi r3, 16
.loop:
    cmpi r3, 0
    jz .done
    load r4, [r1]
    add r4, r2
    store [r1], r4
    add r0, r4
    addi r1, 8
    subi r3, 1
    jmp .loop
.done:
    ret
.endfunc
.func compute
    movi r0, 1
    ret
.endfunc
`

// benchWorkloadUnderPatch builds the image, installs a KShot-style
// trampoline (jmp at compute's entry into the fixed body, written at
// SMM privilege exactly like the patch handler), and then drives the
// patched function through the chosen engine. The trampoline write
// bumps the code epoch once at setup; steady state is what a patched
// kernel serves for the rest of its uptime.
func benchWorkloadUnderPatch(b *testing.B, oracle bool) {
	img, err := isa.Link(isa.MustParse(workloadSrc), isa.LinkOptions{TextBase: 0x10000, DataBase: 0x80000})
	if err != nil {
		b.Fatal(err)
	}
	m := mem.New(16 << 20)
	if _, err := m.Map("text", img.TextBase, uint64(len(img.Text)), mem.Perms{Kernel: mem.PermR | mem.PermX, SMM: mem.PermRWX}); err != nil {
		b.Fatal(err)
	}
	if err := m.Write(mem.PrivSMM, img.TextBase, img.Text); err != nil {
		b.Fatal(err)
	}
	if _, err := m.Map("data", img.DataBase, uint64(len(img.Data)), mem.Perms{Kernel: mem.PermRW, SMM: mem.PermRW}); err != nil {
		b.Fatal(err)
	}
	if err := m.Write(mem.PrivSMM, img.DataBase, img.Data); err != nil {
		b.Fatal(err)
	}
	if _, err := m.Map("stack", 1<<20, 64<<10, mem.Perms{Kernel: mem.PermRW}); err != nil {
		b.Fatal(err)
	}
	stack := uint64(1<<20 + 64<<10)

	entry, _ := img.Symbols.Lookup("compute")
	fixed, _ := img.Symbols.Lookup("compute_fixed")
	table, _ := img.Symbols.Lookup("table")
	rel, err := isa.JmpRel32To(entry.Addr, fixed.Addr)
	if err != nil {
		b.Fatal(err)
	}
	if err := m.Write(mem.PrivSMM, entry.Addr, isa.EncodeJmpRel32(rel)); err != nil {
		b.Fatal(err)
	}

	cpu := isa.New(m, mem.PrivKernel)
	call := cpu.Call
	if !oracle {
		call = isa.NewEngine(cpu).Call
	}
	// One warm call: fault in frames, populate the block cache, and pin
	// down the expected result (16 table slots, +7 each, summed — first
	// call sees zeros).
	if v, err := call(entry.Addr, stack, 10000, table.Addr, 7); err != nil || v != 16*7 {
		b.Fatalf("warm call = %d, %v; want %d", v, err, 16*7)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := call(entry.Addr, stack, 10000, table.Addr, 7); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkSnapshotRestore measures a full COW snapshot/dirty/restore
// cycle over a machine-sized Physical with a realistic resident set.
func BenchmarkSnapshotRestore(b *testing.B) {
	m := mem.New(256 << 20)
	if _, err := m.Map("ram", 0, 64<<20, mem.Perms{Kernel: mem.PermRW}); err != nil {
		b.Fatal(err)
	}
	// Materialize a 8 MB resident set.
	fill := make([]byte, 1<<20)
	for i := range fill {
		fill[i] = byte(i)
	}
	for off := uint64(0); off < 8<<20; off += 1 << 20 {
		if err := m.Write(mem.PrivKernel, off, fill); err != nil {
			b.Fatal(err)
		}
	}
	dirty := make([]byte, 512)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		s := m.Snapshot()
		if err := m.Write(mem.PrivKernel, uint64(i%8)<<20, dirty); err != nil {
			b.Fatal(err)
		}
		if d, err := m.DiffFrames(s); err != nil || len(d) > 1 {
			b.Fatalf("diff = %v, %v", d, err)
		}
		if err := m.Restore(s); err != nil {
			b.Fatal(err)
		}
	}
}
