package evalharness

import (
	"context"
	"errors"
	"runtime"
	"sync"
	"sync/atomic"
	"testing"

	"kshot/internal/core"
	"kshot/internal/cvebench"
	"kshot/internal/isa"
	"kshot/internal/patchserver"
)

// TestBlockInvalidationUnderConcurrentApply patches a kernel out from
// under a running workload. vCPU 1 hammers the vulnerable syscall in a
// loop while vCPU 0's goroutine applies the patch: the SMM world switch
// pauses the workload at a unit boundary, the handler rewrites kernel
// text, and the very next dispatch on vCPU 1 must notice the code-epoch
// bump and re-decode — a stale cached block would keep executing the
// vulnerable code the patch just removed. The test asserts the workload
// observes the flip from vulnerable to fixed with no failed calls, that
// the engine recorded cache flushes and fresh decodes, and that
// rollback flips behaviour back. Run under -race (CI does) this also
// proves the epoch/flush path is data-race free.
//
// The system runs with the activeness check on: an SMI that pauses
// vCPU 1 inside the function would otherwise let the trampoline write
// land on the bytes it resumes at, so Apply retries until the workload
// is paused outside the target, as an operator would.
func TestBlockInvalidationUnderConcurrentApply(t *testing.T) {
	e, ok := cvebench.Get("CVE-2014-4157")
	if !ok {
		t.Fatal("CVE-2014-4157 not in registry")
	}
	srv, err := patchserver.NewServer("127.0.0.1:0", cvebench.TreeProviderFor(e))
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()
	srv.RegisterPatch(e.SourcePatch())
	sys, err := core.NewSystem(core.Options{
		Version:         "4.4",
		NumVCPUs:        2,
		Dispatch:        isa.DispatchBlocks,
		ExtraFiles:      map[string]string{e.File: e.Vuln},
		ServerAddr:      srv.Addr(),
		CheckActiveness: true,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer sys.Close()

	if r, err := e.Exploit(sys.Kernel, 0); err != nil || !r.Vulnerable {
		t.Fatalf("pre-apply exploit: vulnerable=%v, err=%v", r.Vulnerable, err)
	}

	var (
		stop       atomic.Bool
		iterations atomic.Int64
		sawVuln    atomic.Int64
		sawFixed   atomic.Int64
		wg         sync.WaitGroup
		mu         sync.Mutex
		workErrs   []error
	)
	workerDone := make(chan struct{})
	wg.Add(1)
	go func() {
		defer wg.Done()
		defer close(workerDone)
		for !stop.Load() {
			r, err := e.Exploit(sys.Kernel, 1)
			if err != nil {
				mu.Lock()
				workErrs = append(workErrs, err)
				mu.Unlock()
				return
			}
			if r.Vulnerable {
				sawVuln.Add(1)
			} else {
				sawFixed.Add(1)
			}
			iterations.Add(1)
		}
	}()

	waitFor := func(stage string, cond func() bool) {
		for !cond() {
			select {
			case <-workerDone:
				stop.Store(true)
				wg.Wait()
				for _, werr := range workErrs {
					t.Fatalf("%s: workload died: %v", stage, werr)
				}
				t.Fatalf("%s: workload exited early", stage)
			default:
				runtime.Gosched()
			}
		}
	}

	// Let the workload populate vCPU 1's block cache, then patch it out
	// from under the loop.
	waitFor("warmup", func() bool { return iterations.Load() >= 20 })
	for {
		_, err := sys.Apply(context.Background(), e.CVE)
		if err == nil {
			break
		}
		if !errors.Is(err, core.ErrTargetActive) {
			t.Fatalf("apply mid-run: %v", err)
		}
	}
	// The workload must observe the fix — the next dispatches run the
	// patched text, not a stale block.
	fixedAtApply := sawFixed.Load()
	waitFor("post-apply", func() bool { return sawFixed.Load() >= fixedAtApply+20 })
	stop.Store(true)
	wg.Wait()
	for _, werr := range workErrs {
		t.Fatalf("workload call failed: %v", werr)
	}

	if sawVuln.Load() == 0 || sawFixed.Load() == 0 {
		t.Fatalf("workload saw vuln=%d fixed=%d probes; want both behaviours across the apply",
			sawVuln.Load(), sawFixed.Load())
	}
	if r, err := e.Exploit(sys.Kernel, 0); err != nil || r.Vulnerable {
		t.Fatalf("post-apply exploit on vCPU 0: vulnerable=%v, err=%v", r.Vulnerable, err)
	}

	// The workload vCPU is quiescent now; its engine must show the
	// apply's text writes flushed the cache and forced fresh decodes.
	stats, ok := sys.Machine.VCPU(1).EngineStats()
	if !ok {
		t.Fatal("vCPU 1 is not running the block engine")
	}
	if stats.Flushes == 0 {
		t.Fatalf("engine stats %+v: apply bumped the code epoch but the cache never flushed", stats)
	}
	if stats.Decodes == 0 || stats.Hits == 0 {
		t.Fatalf("engine stats %+v: want both decodes and cache hits from the workload", stats)
	}

	// Rollback restores the vulnerable text; a fresh dispatch must not
	// serve the patched block.
	if _, err := sys.Rollback(context.Background(), e.CVE); err != nil {
		t.Fatalf("rollback: %v", err)
	}
	if r, err := e.Exploit(sys.Kernel, 1); err != nil || !r.Vulnerable {
		t.Fatalf("post-rollback exploit: vulnerable=%v, err=%v (stale patched block?)", r.Vulnerable, err)
	}
}
