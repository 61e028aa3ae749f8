package core

import (
	"context"
	"runtime"
	"testing"
)

// TestApplyRollbackAllocs bounds the host allocations of one Apply plus
// Rollback of a pinned CVE on an attached System, with the server's
// build cache warm: fetch, the enclave's prepare and seal, mem_W
// staging, two package SMIs and their status round trips, on both the
// target's side and the in-process server's. The allocation-lean
// package path measured 152 allocations and 21.3 KB per cycle (Go
// 1.24, amd64); before it, with an hmac.New state per MAC, a fresh
// output buffer per decryption, regrowing encoders and fresh per-SMI
// state slices, the same cycle made 241 allocations and 32.7 KB. The
// bounds are those measured values plus a fifth of headroom. With the
// rollback on the patch's delivery path and that path's member list
// and staged directory on the stack, the cycle measures 144
// allocations and 21.0 KB.
func TestApplyRollbackAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("the race detector changes allocation counts")
	}
	const (
		warm      = 5
		rounds    = 50
		maxAllocs = 185
		maxBytes  = 26 << 10
	)
	d := newDeployment(t, "4.4", 0, "CVE-2014-0196")
	ctx := context.Background()
	cycle := func() {
		if _, err := d.System.Apply(ctx, "CVE-2014-0196"); err != nil {
			t.Fatal(err)
		}
		if _, err := d.System.Rollback(ctx, "CVE-2014-0196"); err != nil {
			t.Fatal(err)
		}
	}
	for range warm {
		cycle()
	}
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	for range rounds {
		cycle()
	}
	runtime.ReadMemStats(&after)
	allocs := (after.Mallocs - before.Mallocs) / rounds
	bytes := (after.TotalAlloc - before.TotalAlloc) / rounds
	t.Logf("one Apply+Rollback: %d allocations, %d bytes", allocs, bytes)
	if allocs > maxAllocs || bytes > maxBytes {
		t.Errorf("one Apply+Rollback allocates %d times, %d bytes; limits %d and %d", allocs, bytes, maxAllocs, maxBytes)
	}
}
