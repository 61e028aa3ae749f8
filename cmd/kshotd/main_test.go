package main

import (
	"runtime"
	"testing"
	"time"
)

// waitGoroutines polls until the goroutine count settles back to the
// baseline, failing with a stack dump — teardown of HTTP servers,
// background sweeps, and template booters is asynchronous.
func waitGoroutines(t *testing.T, before int) {
	t.Helper()
	deadline := time.Now().Add(5 * time.Second)
	for {
		runtime.GC()
		if n := runtime.NumGoroutine(); n <= before+2 { // slack for runtime helpers
			return
		}
		if time.Now().After(deadline) {
			buf := make([]byte, 1<<16)
			t.Fatalf("goroutine leak: before=%d after=%d\n%s",
				before, runtime.NumGoroutine(), buf[:runtime.Stack(buf, true)])
		}
		time.Sleep(10 * time.Millisecond)
	}
}

// TestRunLeavesNoGoroutines drives a full kshotd run with every
// server-shaped feature on — standalone patch server, -obs metrics
// HTTP server, -introspect background sweep — and asserts nothing
// outlives run(): listeners, sweep loops, and the single-use
// template's machine are all torn down on the defer path.
func TestRunLeavesNoGoroutines(t *testing.T) {
	if testing.Short() {
		t.Skip("boots a full system")
	}
	before := runtime.NumGoroutine()
	err := run([]string{
		"-standalone",
		"-obs", "127.0.0.1:0",
		"-introspect", "1ms",
		"-cves", "CVE-2014-0196",
	})
	if err != nil {
		t.Fatalf("run: %v", err)
	}
	waitGoroutines(t, before)
}

// TestRunObsServerOnly pins the -obs teardown without -introspect,
// where the listener defer is the only thing stopping the metrics
// server.
func TestRunObsServerOnly(t *testing.T) {
	if testing.Short() {
		t.Skip("boots a full system")
	}
	before := runtime.NumGoroutine()
	err := run([]string{
		"-standalone",
		"-obs", "127.0.0.1:0",
		"-cves", "CVE-2014-0196",
	})
	if err != nil {
		t.Fatalf("run: %v", err)
	}
	waitGoroutines(t, before)
}
