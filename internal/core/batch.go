package core

import (
	"context"
	"errors"
	"fmt"
	"time"

	"kshot/internal/options"
	"kshot/internal/patch"
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

// WithFetchWorkers sets the number of batches fetched ahead of
// delivery (default pipeline.DefaultWorkers). One prefetcher fetches
// them in request order over the System's one server connection, one
// pipelined burst per batch. With one worker, each batch is fetched
// inline right before its delivery, so a seeded fault schedule replays
// at identical call indices on every run.
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
// pipeline: later batches are fetched over the System's one server
// connection while earlier ones are delivered, the enclave prepares
// each batch in one ECALL, and each batch applies under a single SMI.
// Per-patch failures land in BatchReport.Failed without sinking the
// rest; the error return is reserved for cancellation and for
// ErrUnacknowledged, which comes with the full report of what SMM
// applied. However many SMIs the run raised, it ends with one
// acknowledgement round trip that carries SMM's newest status record
// (see System.acknowledge).
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

	entries0 := s.SMM.Entries()
	pause0 := s.SMM.TotalPause()

	res, runErr := pipeline.Run(ctx, batchBackend{s}, cves, pipeline.Config{
		BatchSize:  batchSize,
		Workers:    workers,
		MaxRetries: cfg.maxRetries,
		Backoff:    cfg.backoff,
		Retryable:  func(err error) bool { return errors.Is(err, smmpatch.ErrTargetActive) },
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

// batchBackend adapts the System to the pipeline's Backend interface.
type batchBackend struct{ s *System }

func (b batchBackend) FetchMany(ctx context.Context, cves []string) ([]pipeline.Fetched, error) {
	fs, err := b.s.fetch(ctx, cves)
	if err != nil {
		return nil, fmt.Errorf("%w: %w", ErrFetch, err)
	}
	return fs, nil
}

// Deliver runs Stages 2–4 for the members — a batch, a single, a retry
// or a degraded member alike — under one package SMI.
func (b batchBackend) Deliver(ctx context.Context, members []*pipeline.Member) error {
	return b.s.deliver(ctx, patch.OpPatch, members)
}
