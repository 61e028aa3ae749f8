package main

import (
	"context"
	"math"
	"math/rand"
	"time"

	"kshot/internal/core"
	"kshot/internal/cvebench"
)

// Batch workload shape.
const (
	batchVCPUs        = 2
	batchSize         = 8
	batchFetchWorkers = 2
	// batchCycleSeconds is the nominal wall time of one apply+rollback
	// cycle of the 28-CVE wave on the reference machine.
	batchCycleSeconds = 0.11
)

type batchRunner struct {
	*target
	p       params
	entries []*cvebench.Entry // the wave in seed order
	cves    []string
}

func setupBatch(ctx context.Context, p params) (runner, error) {
	wave := tableOneWave()
	entries := make([]*cvebench.Entry, len(wave))
	for i, j := range rand.New(rand.NewSource(p.seed)).Perm(len(wave)) {
		entries[i] = wave[j]
	}
	t, err := newTarget(ctx, batchVCPUs, wave)
	if err != nil {
		return nil, err
	}
	r := &batchRunner{target: t, p: p, entries: entries, cves: cveIDs(entries)}
	// Warm-up: one probed cycle, which also fills the server's cache.
	if err := r.probedCycle(ctx); err != nil {
		r.close()
		return nil, err
	}
	return r, nil
}

func (r *batchRunner) measure(ctx context.Context, tr *tracer) (*phaseResult, error) {
	n := 2
	if !r.p.tiny {
		n = max(1, int(math.Round(r.p.seconds/batchCycleSeconds)))
	}
	srv0, ecalls0 := r.server.stats(), ecalls(r.hooks)
	ph := newPhaseResult()
	due := time.Now() // closed loop: each cycle is due when the last returns
	for i := 0; i < n; i++ {
		ph.lagMax = max(ph.lagMax, time.Since(due))
		start, patches := time.Now(), ph.patches
		if err := r.cycle(ctx, tr, ph, start, r.cves, nil, r.applyOpts()...); err != nil {
			return nil, err
		}
		due = time.Now()
		ph.rates = append(ph.rates, float64(ph.patches-patches)/due.Sub(start).Seconds())
	}
	r.finish(ph, srv0, ecalls0)
	return ph, nil
}

func (r *batchRunner) applyOpts() []core.ApplyOption {
	return []core.ApplyOption{core.WithBatchSize(batchSize), core.WithFetchWorkers(batchFetchWorkers)}
}

// probedCycle is an untimed cycle that also runs every CVE's exploit
// probe, then checks the target.
func (r *batchRunner) probedCycle(ctx context.Context) error {
	if err := r.cycle(ctx, nil, newPhaseResult(), time.Now(), r.cves, r.entries, r.applyOpts()...); err != nil {
		return err
	}
	return r.target.check()
}

// check runs a last probed cycle; the first ran during set-up.
func (r *batchRunner) check(ctx context.Context) error { return r.probedCycle(ctx) }
