package core

import (
	"context"
	"runtime"
	"testing"
)

// allocsPerRound runs cycle warm times, then rounds times, and returns
// the allocations and bytes of one measured round.
func allocsPerRound(warm, rounds int, cycle func()) (allocs, bytes uint64) {
	for range warm {
		cycle()
	}
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	for range rounds {
		cycle()
	}
	runtime.ReadMemStats(&after)
	return (after.Mallocs - before.Mallocs) / uint64(rounds), (after.TotalAlloc - before.TotalAlloc) / uint64(rounds)
}

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
// allocations and 21.0 KB. With each patch byte crossing each boundary
// once — the server's blob sealed into its response frame, the ECALL
// arguments encoded into one buffer per System, each package marshaled
// and sealed in place in the enclave's result block, and the enclave's
// and SMM's decoders aliasing their private plaintext — it measures
// 114 allocations and 14.2 KB (127 and 19.5 KB before), and the bounds
// are those values plus a fifth.
func TestApplyRollbackAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("the race detector changes allocation counts")
	}
	const (
		warm      = 5
		rounds    = 50
		maxAllocs = 137
		maxBytes  = 17 << 10
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
	allocs, bytes := allocsPerRound(warm, rounds, cycle)
	t.Logf("one Apply+Rollback: %d allocations, %d bytes", allocs, bytes)
	if allocs > maxAllocs || bytes > maxBytes {
		t.Errorf("one Apply+Rollback allocates %d times, %d bytes; limits %d and %d", allocs, bytes, maxAllocs, maxBytes)
	}
}

// TestApplyAllCycleAllocs bounds the host bytes per patch of one
// ApplyAll of batchCVEs in one batch plus the rollback of each, newest
// first: the benchmark's batch cycle in miniature, on an attached
// System with the server's build cache warm. It measures 12.9 KB per
// patch (Go 1.24, amd64), and the bound is that plus a fifth; copying
// each package into a fresh buffer at every step, as the package path
// did before, measures 17.1 KB.
func TestApplyAllCycleAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("the race detector changes allocation counts")
	}
	const (
		warm        = 3
		rounds      = 20
		maxPerPatch = 15 << 10
	)
	d := newDeployment(t, "4.4", 0, batchCVEs...)
	ctx := context.Background()
	cycle := func() {
		rep, err := d.System.ApplyAll(ctx, batchCVEs, WithBatchSize(8))
		if err != nil || len(rep.Failed) > 0 {
			t.Fatalf("ApplyAll: %v, failed %v", err, rep.Failed)
		}
		for i := len(batchCVEs) - 1; i >= 0; i-- {
			if _, err := d.System.Rollback(ctx, batchCVEs[i]); err != nil {
				t.Fatal(err)
			}
		}
	}
	allocs, bytes := allocsPerRound(warm, rounds, cycle)
	perPatch := bytes / uint64(len(batchCVEs))
	t.Logf("one ApplyAll+rollback of %d patches: %d allocations, %d bytes (%d per patch)", len(batchCVEs), allocs, bytes, perPatch)
	if perPatch > maxPerPatch {
		t.Errorf("ApplyAll+rollback allocates %d bytes per patch; limit %d", perPatch, maxPerPatch)
	}
}
