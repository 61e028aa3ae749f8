package main

import (
	"context"
	"fmt"
	"strconv"
	"time"

	"kshot/internal/core"
	"kshot/internal/cvebench"
	"kshot/internal/mem"
	"kshot/internal/obs"
)

// target is one long-lived 4.4 system, patched and rolled back over and
// over, with its own patch server: what the batch and under_load
// workloads share.
type target struct {
	server *patchServer
	sys    *core.System
	hooks  *obs.Hooks
	boot   *mem.Snapshot // memory right after boot
	cycles int
	// problems collects check failures seen inside timed cycles, where
	// returning early would cut the phase short.
	problems []string
}

func newTarget(ctx context.Context, vcpus int, wave []*cvebench.Entry) (*target, error) {
	server, err := newPatchServer(wave)
	if err != nil {
		return nil, err
	}
	sys, err := core.NewSystemCtx(ctx, core.Options{
		Version:    "4.4",
		NumVCPUs:   vcpus,
		ExtraFiles: vulnFiles(wave),
		ServerAddr: server.srv.Addr(),
	})
	if err != nil {
		server.close()
		return nil, err
	}
	t := &target{server: server, sys: sys, hooks: &obs.Hooks{Metrics: obs.NewMetrics()}}
	sys.SetObserver(t.hooks)
	t.boot = sys.Machine.Mem.Snapshot()
	return t, nil
}

// cycle applies cves with ApplyAll, then rolls every applied patch
// back, newest first. Apply latency counts from since. Each entry in
// probe has its exploit probe run after the apply, where it must fail,
// and after the rollback, where it must fire again.
func (t *target) cycle(ctx context.Context, tr *tracer, ph *phaseResult, since time.Time, cves []string, probe []*cvebench.Entry, opts ...core.ApplyOption) error {
	t.cycles++
	req := strconv.Itoa(t.cycles)
	cs := tr.begin("bench.cycle", req, 0)
	defer tr.end(cs)

	sp := tr.begin("core.apply_all", req, cs.id)
	rep, err := t.sys.ApplyAll(ctx, cves, opts...)
	tr.end(sp)
	ph.lat = append(ph.lat, time.Since(since))
	if err != nil {
		return fmt.Errorf("cycle %d: ApplyAll: %w", t.cycles, err)
	}
	addBatchReport(ph.exact, rep)
	ph.attempted += len(cves)
	ph.failed += len(rep.Failed)
	ph.patches += len(rep.Reports)
	if len(rep.Failed) > 0 {
		t.problemf("%d of %d patches failed to apply", len(rep.Failed), len(cves))
	}
	t.probe(probe, false)

	applied := t.sys.Applied()
	for i := len(applied) - 1; i >= 0; i-- {
		sp := tr.begin("core.rollback", req, cs.id)
		_, err := t.sys.Rollback(ctx, applied[i])
		tr.end(sp)
		ph.attempted++
		if err != nil {
			ph.failed++
			t.problemf("rollback %s: %v", applied[i], err)
		}
	}
	if left := t.sys.Applied(); len(left) > 0 {
		t.problemf("%v still applied after rollback", left)
	}
	t.probe(probe, true)
	return nil
}

func (t *target) problemf(format string, a ...any) {
	t.problems = append(t.problems, fmt.Sprintf("cycle %d: ", t.cycles)+fmt.Sprintf(format, a...))
}

// probe runs each entry's exploit probe, noting a problem unless it
// reports the kernel vulnerable exactly when vulnerable is set.
func (t *target) probe(entries []*cvebench.Entry, vulnerable bool) {
	for _, e := range entries {
		res, err := e.Exploit(t.sys.Kernel, 0)
		if err != nil {
			t.problemf("exploit probe %s: %v", e.CVE, err)
		} else if res.Vulnerable != vulnerable {
			t.problemf("exploit probe %s: vulnerable=%t, want %t (%s)", e.CVE, res.Vulnerable, vulnerable, res.Detail)
		}
	}
}

// finish adds the target's counts since the phase began into ph.
func (t *target) finish(ph *phaseResult, srv0 serverStats, ecalls0 float64) {
	t.server.since(srv0, ph)
	ph.exact["sgx.ecalls"] = ecalls(t.hooks) - ecalls0
	ph.exact["mem.private_kb_per_target"] = privateKB(t.sys)
}

// check reports the first problem any cycle saw, then requires
// kernel.text to match the boot snapshot frame for frame.
func (t *target) check() error {
	if len(t.problems) > 0 {
		return fmt.Errorf("%d problems, first: %s", len(t.problems), t.problems[0])
	}
	return textDiff(t.sys, t.boot)
}

func (t *target) close() {
	t.sys.Close()
	t.server.close()
}
