package core

import (
	"context"
	"errors"
	"fmt"
	"slices"
	"time"

	"kshot/internal/obs"
	"kshot/internal/options"
	"kshot/internal/patchserver"
	"kshot/internal/pipeline"
	"kshot/internal/sgxprep"
	"kshot/internal/smmpatch"
	"kshot/internal/timing"
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
	syncFetch    bool
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
// connections (default pipeline.DefaultWorkers).
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

// WithSyncFetch fetches each batch inline right before delivering it,
// giving up fetch/delivery overlap so a seeded fault schedule replays
// at identical call indices on every run. Chaos tests use this;
// production runs should not.
func WithSyncFetch() ApplyOption {
	return func(c *applyConfig) error {
		c.syncFetch = true
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
// reserved for cancellation.
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
		fetchers <- s.dialFetcher()
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

	res, runErr := pipeline.Run(ctx, &batchBackend{s: s, fetchers: fetchers}, cves, pipeline.Config{
		BatchSize:  batchSize,
		Workers:    workers,
		MaxRetries: cfg.maxRetries,
		Backoff:    cfg.backoff,
		Retryable:  func(err error) bool { return errors.Is(err, smmpatch.ErrTargetActive) },
		Clock:      s.wall,
		Obs:        s.obs,
		SyncFetch:  cfg.syncFetch,
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
// the attached client when that fails.
func (s *System) dialFetcher() *patchserver.Client {
	c, err := patchserver.Dial(s.serverAddr, s.dialOptions()...)
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
	rs, err := c.FetchPatches(ctx, cves)
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
	out := make([]pipeline.Fetched, len(rs))
	for i, r := range rs {
		f := pipeline.Fetched{CVE: r.CVE, Blob: r.Blob}
		if r.Err != nil {
			f.Blob = nil
			f.Err = fmt.Errorf("%w: %s: %w", ErrFetch, r.CVE, r.Err)
		} else {
			f.Time = timing.Linear(b.s.Model.FetchFixed, b.s.Model.FetchPerByte, len(r.Blob))
			b.s.Clock.Advance(f.Time)
			b.s.obs.Span(obs.PhaseFetch, r.CVE, -1, f.Time, len(r.Blob))
		}
		out[i] = f
	}
	return out, nil
}

// DeliverOne applies one already-fetched member through the
// single-package path (its own SMI) — used for single-member batches,
// retries after activeness refusals, and degraded batch members.
func (b *batchBackend) DeliverOne(ctx context.Context, m *pipeline.Member) error {
	st := StageTimes{Fetch: m.Stages.Fetch}
	rep, err := b.s.applyPrepared(ctx, m.CVE, m.Blob, &st)
	if err != nil {
		m.Stages = st
		return err
	}
	m.Stages = rep.Stages
	return nil
}

// DeliverBatch runs Stages 2–4 for a whole batch: one prepare-many
// ECALL, one staging directory, one SMI. Per-member outcomes land on
// the members; a non-nil return means the SMI itself failed and the
// pipeline should degrade to per-patch delivery.
func (b *batchBackend) DeliverBatch(ctx context.Context, members []*pipeline.Member) error {
	s := b.s
	if err := ctx.Err(); err != nil {
		return err
	}

	// Stage 2: prepare every member in one ECALL at running cursors.
	smmPub, err := smmpatch.ReadSMMPub(s.Machine.Mem, s.helperPriv, s.Kernel.Res)
	if err != nil {
		return fmt.Errorf("core: read SMM key: %w", err)
	}
	memX, data := s.Handler.Cursors()
	blobs := make([][]byte, len(members))
	for i, m := range members {
		blobs[i] = m.Blob
	}
	out, err := s.ecall(sgxprep.FnPrepareBatch, sgxprep.EncodeBatchPrepareArgs(&sgxprep.BatchPrepareArgs{
		ServerBlobs: blobs,
		SMMPub:      smmPub,
		MemXCursor:  memX,
		DataCursor:  data,
	}))
	if err != nil {
		return fmt.Errorf("%w: batch: %w", ErrEnclavePrepare, err)
	}
	br, err := sgxprep.DecodeBatchResult(out)
	if err != nil {
		return err
	}
	if len(br.Members) != len(members) {
		return fmt.Errorf("core: batch prepare returned %d members, want %d", len(br.Members), len(members))
	}

	// Stage 3: stage the successfully prepared members as one mem_W
	// directory; preparation failures get per-member errors and drop
	// out here (the pipeline gives them a per-patch attempt).
	var staged []smmpatch.BatchMember
	var stagedIdx []int
	for i, mr := range br.Members {
		m := members[i]
		if mr.Err != "" {
			m.Err = fmt.Errorf("%w: %s: %s", ErrEnclavePrepare, m.CVE, mr.Err)
			continue
		}
		m.Stages.Preprocess = mr.Prep
		m.Stages.PayloadBytes = mr.PayloadBytes
		m.Stages.Pass = timing.Linear(s.Model.PassFixed, s.Model.PassPerByte, len(mr.Ciphertext))
		s.Clock.Advance(m.Stages.Pass)
		staged = append(staged, smmpatch.BatchMember{EnclavePub: mr.EnclavePub, Ciphertext: mr.Ciphertext})
		stagedIdx = append(stagedIdx, i)
	}
	if len(staged) == 0 {
		return nil
	}
	if err := smmpatch.StageBatch(s.Machine.Mem, s.helperPriv, s.Kernel.Res, staged); err != nil {
		return fmt.Errorf("core: stage batch: %w", err)
	}

	// Stage 4: one SMI for the whole batch, announced to the detector
	// like the single-package path so replays stay distinguishable.
	s.det.ExpectSMI(uint8(smmpatch.CmdProcessBatch))
	s.det.BeginTrustedWindow()
	batchErr := s.SMM.Trigger(smmpatch.CmdProcessBatch, 0)
	// Closing the window rebaselines atomically: a background sweep
	// can never diff this SMI's text changes against the old baseline.
	s.det.EndTrustedWindow()
	if batchErr != nil {
		return fmt.Errorf("core: SMM batch processing: %w", batchErr)
	}
	codes, err := smmpatch.ReadBatchResults(s.Machine.Mem, s.helperPriv, s.Kernel.Res)
	if err != nil {
		return err
	}
	if len(codes) != len(staged) {
		return fmt.Errorf("core: batch results: %d codes for %d members", len(codes), len(staged))
	}
	bds := s.Handler.BatchBreakdowns()
	switchShare := timing.AmortizeFixed(s.Model.SMMEntry+s.Model.SMMExit, len(staged))
	for j, idx := range stagedIdx {
		m := members[idx]
		if j < len(bds) {
			m.Stages.KeyGen = bds[j].KeyGen
			m.Stages.Decrypt = bds[j].Decrypt
			m.Stages.Verify = bds[j].Verify
			m.Stages.Apply = bds[j].Apply
		}
		m.Stages.Switch = switchShare
		switch codes[j] {
		case smmpatch.StatusPatched:
			m.Err = nil
			s.obs.ObserveDur(obs.HistDowntime,
				m.Stages.KeyGen+m.Stages.Decrypt+m.Stages.Verify+m.Stages.Apply+m.Stages.Switch)
			s.det.NoteApplied(m.CVE)
		case smmpatch.StatusTargetActive:
			m.Err = fmt.Errorf("core: %s: %w", m.CVE, smmpatch.ErrTargetActive)
			s.det.NoteActiveRefusal(m.CVE)
		default:
			m.Err = fmt.Errorf("core: %s: batch member status %d", m.CVE, codes[j])
		}
	}
	// Confirm the batch SMI through the status mailbox and report to
	// the server with its MAC, same as single deliveries.
	status, err := smmpatch.ReadStatusRecord(s.Machine.Mem, s.helperPriv, s.Kernel.Res)
	if err != nil {
		return err
	}
	if status.Code != smmpatch.StatusBatchDone {
		return &StatusError{ID: "batch", Got: status.Code, Want: smmpatch.StatusBatchDone}
	}
	return s.client.ReportStatusMAC(status.Code, status.Seq, status.Digest, status.MAC[:])
}
