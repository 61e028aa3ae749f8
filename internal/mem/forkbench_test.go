package mem

import "testing"

// BenchmarkFork measures the cost of a COW fork of a default-size
// Physical with a modest resident set: the region-table copy, the
// 256-slot root allocation, and one shared-flag pass over the resident
// leaves. No page is touched.
func BenchmarkFork(b *testing.B) {
	m := New(256 << 20)
	if _, err := m.Map("ram", 0, 64*FrameSize, Perms{Kernel: PermRW}); err != nil {
		b.Fatal(err)
	}
	one := []byte{1}
	for f := uint64(0); f < 64; f++ {
		if err := m.Write(PrivKernel, f*FrameSize, one); err != nil {
			b.Fatal(err)
		}
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		_ = m.Fork()
	}
}
