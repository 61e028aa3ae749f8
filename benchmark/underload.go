package main

import (
	"context"
	"fmt"
	"math"
	"math/rand"
	"runtime"
	"time"

	"kshot/internal/cvebench"
	"kshot/internal/workload"
)

// Under-load workload shape.
const (
	underLoadVCPUs     = 1
	underLoadPeriod    = 50 * time.Millisecond // open-loop patch schedule
	underLoadCVEs      = 4                     // CVEs per scheduled batch
	underLoadGuestWarm = time.Second
	// underLoadSegment is how many periods one guest throughput sample
	// spans (one second).
	underLoadSegment = 20
)

type underLoadRunner struct {
	*target
	p     params
	wave  []*cvebench.Entry
	rng   *rand.Rand // picks each cycle's batch
	guest *workload.Driver

	guestErrors uint64
	// guestAllocPerOp is the heap bytes one guest call allocates,
	// measured while the guest runs alone during warm-up.
	guestAllocPerOp float64
}

func setupUnderLoad(ctx context.Context, p params) (runner, error) {
	wave := tableOneWave()
	t, err := newTarget(ctx, underLoadVCPUs, wave)
	if err != nil {
		return nil, err
	}
	r := &underLoadRunner{
		target: t, p: p, wave: wave,
		rng:   rand.New(rand.NewSource(p.seed)),
		guest: workload.New(t.sys.Kernel, workload.Mixed),
	}

	// Warm-up: one cycle, then the guest alone for a while.
	if err := r.cycle(ctx, nil, newPhaseResult(), time.Now()); err != nil {
		r.close()
		return nil, err
	}
	warm := underLoadGuestWarm
	if p.tiny {
		warm = underLoadPeriod
	}
	var m0, m1 runtime.MemStats
	runtime.ReadMemStats(&m0)
	st, err := r.guest.RunFor(warm)
	runtime.ReadMemStats(&m1)
	if err != nil {
		r.close()
		return nil, err
	}
	r.guestErrors += st.Errors
	r.guestAllocPerOp = float64(m1.TotalAlloc-m0.TotalAlloc) / float64(max(st.Ops, 1))
	return r, nil
}

// measure runs the guest flat out on one thread while this thread
// applies a batch every underLoadPeriod and rolls it back. Latency is
// taken from each cycle's due time, so a late cycle also counts the
// wait it imposed on the schedule.
func (r *underLoadRunner) measure(ctx context.Context, tr *tracer) (*phaseResult, error) {
	n := 2
	if !r.p.tiny {
		n = max(1, int(math.Round(r.p.seconds/underLoadPeriod.Seconds())))
	}
	srv0, ecalls0 := r.server.stats(), ecalls(r.hooks)
	ph := newPhaseResult()
	if err := r.guest.Start(); err != nil {
		return nil, err
	}
	t0 := time.Now()
	for i := 0; i < n; i++ {
		due := t0.Add(time.Duration(i) * underLoadPeriod)
		if d := time.Until(due); d > 0 {
			time.Sleep(d)
		}
		ph.lagMax = max(ph.lagMax, time.Since(due))
		if i > 0 && i%underLoadSegment == 0 {
			r.stopGuest(ph)
			if err := r.guest.Start(); err != nil {
				return nil, err
			}
		}
		if err := r.cycle(ctx, tr, ph, due); err != nil {
			r.stopGuest(ph)
			return nil, err
		}
	}
	// The phase lasts whole periods: the guest keeps running through
	// the last one.
	if d := time.Until(t0.Add(time.Duration(n) * underLoadPeriod)); d > 0 {
		time.Sleep(d)
	}
	r.stopGuest(ph)
	ph.guestAlloc = r.guestAllocPerOp * float64(ph.guestOps)
	r.finish(ph, srv0, ecalls0)
	return ph, nil
}

// stopGuest ends one guest segment and records its throughput.
func (r *underLoadRunner) stopGuest(ph *phaseResult) {
	st := r.guest.Stop()
	r.guestErrors += st.Errors
	ph.guestOps += int(st.Ops)
	ph.attempted += int(st.Ops + st.Errors)
	ph.failed += int(st.Errors)
	ph.rates = append(ph.rates, st.OpsPerSec())
}

// cycle applies a seed-chosen batch and rolls it back.
func (r *underLoadRunner) cycle(ctx context.Context, tr *tracer, ph *phaseResult, due time.Time) error {
	pick := r.rng.Perm(len(r.wave))[:underLoadCVEs]
	cves := make([]string, len(pick))
	for i, j := range pick {
		cves[i] = r.wave[j].CVE
	}
	return r.target.cycle(ctx, tr, ph, due, cves, nil)
}

// check requires an error-free guest, then checks the target.
func (r *underLoadRunner) check(context.Context) error {
	if r.guestErrors > 0 {
		return fmt.Errorf("guest reported %d failed calls while patching", r.guestErrors)
	}
	return r.target.check()
}

func (r *underLoadRunner) close() {
	r.guest.Stop()
	r.target.close()
}
