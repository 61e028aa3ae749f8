package core

import (
	"context"
	"errors"
	"fmt"
	"slices"
	"time"

	"kshot/internal/options"
	"kshot/internal/patch"
	"kshot/internal/patchserver"
	"kshot/internal/pipeline"
	"kshot/internal/smmpatch"
)

// ApplyOption tunes an ApplyAll run. Every With* validates its
// argument eagerly; ApplyAll reports the first rejected option as a
// typed *options.Error matching options.ErrInvalid, before any fetch
// is issued.
type ApplyOption func(*applyConfig) error

type applyConfig struct {
	batchSize    int
	fetchWorkers int
	maxRetries   int
	backoff      time.Duration
}

func applyOptErr(option, format string, a ...any) error {
	return options.Errorf("System.ApplyAll", option, format, a...)
}

// WithBatchSize caps how many patches are delivered under one SMI
// (default pipeline.DefaultBatchSize, max smmpatch.MaxBatchMembers).
func WithBatchSize(n int) ApplyOption {
	return func(c *applyConfig) error {
		if n < 1 {
			return applyOptErr("WithBatchSize", "must be >= 1, got %d", n)
		}
		c.batchSize = n
		return nil
	}
}

// WithFetchWorkers sets the number of concurrent Stage-1 fetch
// connections (default pipeline.DefaultWorkers). With one, each batch
// is fetched inline right before its delivery, so a seeded fault
// schedule replays at identical call indices on every run.
func WithFetchWorkers(n int) ApplyOption {
	return func(c *applyConfig) error {
		if n < 1 {
			return applyOptErr("WithFetchWorkers", "must be >= 1, got %d", n)
		}
		c.fetchWorkers = n
		return nil
	}
}

// WithMaxRetries bounds per-patch redeliveries after an activeness
// refusal; negative disables retries (default pipeline.DefaultMaxRetries).
func WithMaxRetries(n int) ApplyOption {
	return func(c *applyConfig) error {
		c.maxRetries = n
		return nil
	}
}

// WithRetryBackoff sets the base real-time delay before the first
// retry; it doubles per attempt (default pipeline.DefaultBackoff).
func WithRetryBackoff(d time.Duration) ApplyOption {
	return func(c *applyConfig) error {
		if d < 0 {
			return applyOptErr("WithRetryBackoff", "must be >= 0, got %v", d)
		}
		c.backoff = d
		return nil
	}
}

// BatchReport is the outcome of one ApplyAll run.
type BatchReport struct {
	// Reports holds the successfully applied patches in request order.
	Reports []*Report

	// Failed maps each CVE that did not land to its final error.
	Failed map[string]error

	// Requested is the number of CVEs asked for.
	Requested int

	// SMIs is the number of SMM world switches this run raised;
	// SMMPause is the total virtual time the OS spent paused for them.
	// Batched delivery makes SMIs < Requested.
	SMIs     uint64
	SMMPause time.Duration

	// Pipeline traffic counters (see pipeline.Result).
	Batches  int
	Singles  int
	Retries  int
	Degraded int
}

// ApplyAll live-patches many CVEs through the concurrent batch
// pipeline: fetches fan out over a pool of attested server
// connections, the enclave prepares each batch in one ECALL, and each
// batch applies under a single SMI. Per-patch failures land in
// BatchReport.Failed without sinking the rest; the error return is
// reserved for cancellation and for ErrUnacknowledged, which comes
// with the full report of what SMM applied. However many SMIs the run
// raised, it ends with one acknowledgement round trip that carries SMM's
// newest status record (see System.acknowledge).
func (s *System) ApplyAll(ctx context.Context, cves []string, opts ...ApplyOption) (*BatchReport, error) {
	if err := s.Attach(ctx); err != nil {
		return nil, err
	}
	var cfg applyConfig
	for _, o := range opts {
		if err := o(&cfg); err != nil {
			return nil, err
		}
	}
	batchSize := cfg.batchSize
	if batchSize <= 0 {
		batchSize = pipeline.DefaultBatchSize
	}
	if batchSize > smmpatch.MaxBatchMembers {
		batchSize = smmpatch.MaxBatchMembers
	}
	workers := cfg.fetchWorkers
	if workers <= 0 {
		workers = pipeline.DefaultWorkers
	}

	// Stage-1 connection pool: each worker gets its own attested
	// connection so server-side patch builds genuinely overlap (the
	// server derives the same channel key, the one this system's enclave
	// holds, for each of them). The attached client is worker 0, so a
	// one-batch run needs no other. The extras come from the System's
	// idle pool and only the shortfall is dialed; a failed dial falls
	// back to sharing the attached client, which is mutex-guarded.
	nbatches := (len(cves) + batchSize - 1) / batchSize
	poolSize := max(1, min(workers, nbatches))
	fetchers := make(chan *patchserver.Client, poolSize)
	fetchers <- s.client
	extras := s.takeFetchers(poolSize - 1)
	for _, c := range extras {
		fetchers <- c
	}
	for range poolSize - 1 - len(extras) {
		fetchers <- s.dialFetcher(ctx)
	}
	defer func() {
		// Reclaim every fetch slot before pooling the extras. A fetch
		// worker Run left behind on cancellation hands its client back
		// promptly, because Run's context is done by then.
		var idle []*patchserver.Client
		for range poolSize {
			if c := <-fetchers; c != s.client {
				idle = append(idle, c)
			}
		}
		s.putFetchers(idle)
	}()

	entries0 := s.SMM.Entries()
	pause0 := s.SMM.TotalPause()

	backend := &batchBackend{s: s, fetchers: fetchers}
	res, runErr := pipeline.Run(ctx, backend, cves, pipeline.Config{
		BatchSize:  batchSize,
		Workers:    workers,
		MaxRetries: cfg.maxRetries,
		Backoff:    cfg.backoff,
		Retryable:  func(err error) bool { return errors.Is(err, smmpatch.ErrTargetActive) },
		Clock:      s.wall,
		Obs:        s.obs,
	})

	rep := &BatchReport{
		Requested: len(cves),
		Failed:    make(map[string]error),
		SMIs:      s.SMM.Entries() - entries0,
		SMMPause:  s.SMM.TotalPause() - pause0,
		Batches:   res.Batches,
		Singles:   res.Singles,
		Retries:   res.Retries,
		Degraded:  res.Degraded,
	}
	for _, m := range res.Members {
		if m.Err != nil {
			rep.Failed[m.CVE] = m.Err
			continue
		}
		rep.Reports = append(rep.Reports, &Report{ID: m.CVE, Stages: m.Stages})
	}
	if err := s.acknowledge(context.WithoutCancel(ctx)); err != nil {
		return rep, errors.Join(runErr, err)
	}
	return rep, runErr
}

// takeFetchers checks out up to n idle extra fetch clients, with the
// System's current handle and wall clock re-applied.
func (s *System) takeFetchers(n int) []*patchserver.Client {
	s.fetchersMu.Lock()
	k := max(0, len(s.idleFetchers)-n)
	cs := slices.Clone(s.idleFetchers[k:])
	clear(s.idleFetchers[k:])
	s.idleFetchers = s.idleFetchers[:k]
	s.fetchersMu.Unlock()
	for _, c := range cs {
		c.SetWallClock(s.wall)
		c.SetObserver(s.obs)
	}
	return cs
}

// putFetchers returns extra fetch clients to the idle pool, or closes
// them once the System is closed.
func (s *System) putFetchers(cs []*patchserver.Client) {
	s.fetchersMu.Lock()
	if !s.fetchersClosed {
		s.idleFetchers = append(s.idleFetchers, cs...)
		cs = nil
	}
	s.fetchersMu.Unlock()
	for _, c := range cs {
		_ = c.Close()
	}
}

// dialFetcher dials and attests one extra fetch connection, or returns
// the attached client when that fails or ctx is done.
func (s *System) dialFetcher(ctx context.Context) *patchserver.Client {
	c, err := patchserver.Dial(ctx, s.serverAddr, s.dialOptions()...)
	if err != nil {
		return s.client
	}
	if _, err := c.HelloWithAttestation(s.info, s.meas, s.attKey); err != nil {
		_ = c.Close()
		return s.client
	}
	return c
}

// batchBackend adapts the System to the pipeline's Backend interface.
type batchBackend struct {
	s        *System
	fetchers chan *patchserver.Client
}

func (b *batchBackend) FetchMany(ctx context.Context, cves []string) ([]pipeline.Fetched, error) {
	var c *patchserver.Client
	select {
	case c = <-b.fetchers:
	case <-ctx.Done():
		return nil, ctx.Err()
	}
	fs, err := b.s.fetch(ctx, c, cves)
	if err != nil && c != b.s.client {
		// A transport failure leaves c's connection in doubt: close it
		// and let the attached client take its fetch slot.
		_ = c.Close()
		c = b.s.client
	}
	b.fetchers <- c
	if err != nil {
		return nil, fmt.Errorf("%w: %w", ErrFetch, err)
	}
	return fs, nil
}

// Deliver runs Stages 2–4 for the members — a batch, a single, a retry
// or a degraded member alike — under one package SMI.
func (b *batchBackend) Deliver(ctx context.Context, members []*pipeline.Member) error {
	return b.s.deliver(ctx, patch.OpPatch, members)
}
