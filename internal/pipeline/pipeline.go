// Package pipeline is KShot's concurrent multi-CVE patch manager. It
// coalesces the requested CVEs into batches, runs Stage 1 of Figure 2
// (fetching encrypted patches) for later batches ahead of delivery,
// and hands each batch to a backend that runs Stages 2–4 (enclave
// prepare-many, staging, one SMI for the whole batch). A single
// member — a one-member batch, a retry, a degraded member — takes the
// same backend call with a one-member slice. Delivery is strictly in
// request order — enclave preparation places members at a running
// mem_X cursor, so batch k+1's placement assumes batch k applied
// first — but fetching for later batches overlaps the preparation and
// delivery of earlier ones, which is where the wall-clock win over
// serial Apply comes from. The OS-pause win comes from the batch SMI
// itself: one world switch and one SMM key generation per batch
// instead of per patch.
//
// Failure handling is per-member:
//
//   - a member the backend marks with a retryable error (the SMM
//     activeness check refusing a live target) is retried alone with
//     exponential backoff, without repeating its batch mates;
//   - a member that fails inside a batch for any other reason (bad
//     verification, preparation failure) degrades to one per-patch
//     delivery attempt, so a single poisoned member cannot suppress
//     its batch mates or hide which member was at fault; a member
//     delivered alone already had its per-patch attempt and fails;
//   - a batch whose delivery fails structurally (SMI-level error)
//     degrades to per-patch deliveries for every member.
//
// The package knows nothing about SGX, SMM, or the network: the
// Backend interface carries all of that, which keeps the concurrency
// logic testable with in-memory fakes.
package pipeline

import (
	"context"
	"fmt"
	"time"

	"kshot/internal/faultinject"
	"kshot/internal/obs"
	"kshot/internal/timing"
)

// Defaults for Config zero values.
const (
	DefaultBatchSize  = 8
	DefaultWorkers    = 4
	DefaultMaxRetries = 3
	DefaultBackoff    = 200 * time.Microsecond
)

// Config tunes a pipeline run. The zero value gets the defaults above.
type Config struct {
	// BatchSize is the maximum number of patches delivered under a
	// single SMI.
	BatchSize int

	// Workers is the number of batches fetched ahead of delivery, by
	// one prefetcher in request order. With one (or with one batch),
	// Run fetches each batch inline.
	Workers int

	// MaxRetries bounds per-member redelivery attempts after a
	// retryable refusal. Negative disables retries entirely.
	MaxRetries int

	// Backoff is the base real-time delay before the first retry; it
	// doubles per attempt.
	Backoff time.Duration

	// Retryable classifies member delivery errors worth retrying
	// (e.g. the activeness check refusing a live target). Nil means
	// nothing is retryable.
	Retryable func(error) bool

	// Obs, when non-nil, records pipeline-level metrics (batch sizes,
	// delivery-mode counters, per-member attempt counts) and batch
	// markers in the trace. Its fault set injects faults at the
	// pipeline's own seams: fetch stalls before fetches and context
	// cancellation at stage boundaries. Its clock paces retry backoff
	// and injected stalls (real time when nil).
	Obs *obs.Hooks
}

func (c Config) withDefaults() Config {
	if c.BatchSize <= 0 {
		c.BatchSize = DefaultBatchSize
	}
	if c.Workers <= 0 {
		c.Workers = DefaultWorkers
	}
	switch {
	case c.MaxRetries < 0:
		c.MaxRetries = 0
	case c.MaxRetries == 0:
		c.MaxRetries = DefaultMaxRetries
	}
	if c.Backoff <= 0 {
		c.Backoff = DefaultBackoff
	}
	if c.Retryable == nil {
		c.Retryable = func(error) bool { return false }
	}
	return c
}

// Member is one CVE moving through the pipeline. The backend fills
// Stages as the member passes each stage; Err holds the member's final
// failure (nil on success).
type Member struct {
	CVE    string
	Blob   []byte // fetched encrypted patch
	Stages timing.Stages

	Err      error
	Attempts int  // delivery attempts (batch + per-patch)
	Fallback bool // delivered (or re-attempted) via per-patch SMI
}

// Fetched is one CVE's outcome from Backend.FetchMany.
type Fetched struct {
	CVE  string
	Blob []byte
	Time time.Duration // virtual fetch stage time
	Err  error
}

// Backend runs the platform-specific stages for the pipeline.
type Backend interface {
	// FetchMany downloads the encrypted patches for cves. It returns
	// one entry per CVE in order; per-CVE failures go in Fetched.Err,
	// the error return is for whole-call failures.
	FetchMany(ctx context.Context, cves []string) ([]Fetched, error)

	// Deliver prepares and applies the members under a single SMI.
	// Per-member outcomes (including refusals) are recorded on the
	// members' Err fields, nil on success; the error return means the
	// delivery as a whole failed structurally and nothing can be said
	// about members.
	Deliver(ctx context.Context, members []*Member) error
}

// Result summarizes a pipeline run.
type Result struct {
	// Members holds every requested CVE in request order, each with
	// its final outcome.
	Members []*Member

	// Batches counts multi-member SMI deliveries; Singles counts
	// per-patch SMI deliveries (single-member batches, retries, and
	// degraded members).
	Batches int
	Singles int

	// Retries counts redeliveries after retryable refusals; Degraded
	// counts members that fell back from a batch to a per-patch SMI.
	Retries  int
	Degraded int
}

// Run drives the full pipeline for cves and returns per-member
// outcomes. The returned error is non-nil only for cancellation:
// member-level failures are reported on the members so one bad patch
// never hides the rest.
//
// On cancellation the pipeline stops cleanly between deliveries:
// members already applied stay applied (live patching is not
// transactional across patches), unprocessed members get ctx's error,
// and no SMI is in flight when Run returns.
func Run(ctx context.Context, b Backend, cves []string, cfg Config) (*Result, error) {
	cfg = cfg.withDefaults()
	members := make([]*Member, len(cves))
	for i, cve := range cves {
		members[i] = &Member{CVE: cve}
	}
	res := &Result{Members: members}
	if len(members) == 0 {
		return res, nil
	}
	if ob := cfg.Obs; ob != nil {
		// Metrics are published once per run, on every return path, so
		// counter totals always match the Result the caller sees.
		defer func() {
			ob.Count(obs.CtrBatches, int64(res.Batches))
			ob.Count(obs.CtrSingles, int64(res.Singles))
			ob.Count(obs.CtrRetries, int64(res.Retries))
			ob.Count(obs.CtrDegraded, int64(res.Degraded))
			for _, m := range members {
				if m.Attempts > 0 {
					ob.Observe(obs.HistAttempts, float64(m.Attempts))
				}
			}
		}()
	}

	// Injected cancellation wraps the caller's context so a planned
	// fault at any stage boundary exercises the same cleanup paths a
	// real caller-side cancellation would.
	ctx, cancel := context.WithCancel(ctx)
	defer cancel()
	boundary := func() {
		if _, ok := cfg.Obs.Fault(faultinject.PipelineCancel); ok {
			cancel()
		}
	}

	var batches [][]*Member
	for i := 0; i < len(members); i += cfg.BatchSize {
		end := i + cfg.BatchSize
		if end > len(members) {
			end = len(members)
		}
		batches = append(batches, members[i:end])
	}

	// Prefetch: one goroutine fetches the batches in request order,
	// at most Workers ahead of delivery (Workers-1 waiting in the
	// channel, one in hand). The backend serializes fetches (a System
	// has one server connection), so more fetchers would only queue
	// there, in whatever order they got in, while delivery waits for
	// batch 0. With one fetch slot (one worker, or one batch) there is
	// nothing to overlap: the deliverer fetches each batch inline right
	// before delivering it, so a single goroutine touches every
	// injection point and a seeded fault schedule replays at identical
	// call indices on every run.
	type fetchOut struct {
		fetched []Fetched
		err     error
	}
	fetchBatch := func(i int) fetchOut {
		// Injected fetch stall: the helper wedges for a while before
		// issuing its call (a slow or contended helper thread).
		if f, ok := cfg.Obs.Fault(faultinject.PipelineStall); ok {
			cfg.Obs.Clock().Sleep(ctx, f.Delay)
		}
		ids := make([]string, len(batches[i]))
		for j, m := range batches[i] {
			ids[j] = m.CVE
		}
		f, err := b.FetchMany(ctx, ids)
		return fetchOut{f, err}
	}
	var ahead chan fetchOut
	if workers := min(cfg.Workers, len(batches)); workers > 1 {
		ahead = make(chan fetchOut, workers-1)
		go func() {
			for i := 0; i < len(batches) && ctx.Err() == nil; i++ {
				fo := fetchBatch(i)
				select {
				case ahead <- fo:
				case <-ctx.Done():
				}
			}
		}()
	}

	// Delivery: strictly in request order (the enclave prepares each
	// batch at the cursor the previous batch left behind).
	for i, batch := range batches {
		boundary() // fetch → delivery hand-off
		var fo fetchOut
		if ahead == nil {
			if err := ctx.Err(); err != nil {
				markUnprocessed(batches[i:], err)
				return res, err
			}
			fo = fetchBatch(i)
		} else {
			select {
			case fo = <-ahead:
			case <-ctx.Done():
				markUnprocessed(batches[i:], ctx.Err())
				return res, ctx.Err()
			}
		}
		if err := ctx.Err(); err != nil {
			markUnprocessed(batches[i:], err)
			return res, err
		}
		if fo.err != nil {
			for _, m := range batch {
				m.Err = fo.err
			}
			continue
		}
		for j, f := range fo.fetched {
			if j >= len(batch) {
				break
			}
			m := batch[j]
			m.Blob = f.Blob
			m.Stages.Fetch = f.Time
			m.Err = f.Err
		}

		var deliverable []*Member
		for _, m := range batch {
			if m.Err == nil && m.Blob != nil {
				deliverable = append(deliverable, m)
			}
		}
		if len(deliverable) == 0 {
			continue
		}
		if ob := cfg.Obs; ob != nil {
			ob.Observe(obs.HistBatchSize, float64(len(deliverable)))
			ob.Point(obs.PhaseBatch, fmt.Sprintf("batch[%d]:%d", i, len(deliverable)), -1)
		}
		boundary() // pre-delivery

		if len(deliverable) == 1 {
			deliverOne(ctx, b, deliverable[0])
			res.Singles++
		} else {
			res.Batches++
			for _, m := range deliverable {
				m.Attempts++
			}
			if err := b.Deliver(ctx, deliverable); err != nil {
				// Structural batch failure: graceful degradation to
				// per-patch SMIs for every member.
				for _, m := range deliverable {
					if cerr := ctx.Err(); cerr != nil {
						markUnprocessed(batches[i:], cerr)
						return res, cerr
					}
					deliverFallback(ctx, b, m, res)
				}
			}
		}

		boundary() // post-delivery, pre-retry

		// Per-member outcomes: retry refused members alone; give batch
		// verification failures one per-patch attempt of their own. A
		// lone member already had one: it has nothing to degrade to.
		for _, m := range deliverable {
			if cerr := ctx.Err(); cerr != nil {
				markUnprocessed(batches[i:], cerr)
				return res, cerr
			}
			switch {
			case m.Err == nil:
			case cfg.Retryable(m.Err):
				retryMember(ctx, b, m, cfg, res)
			case len(deliverable) > 1 && !m.Fallback && m.Attempts == 1:
				deliverFallback(ctx, b, m, res)
				if m.Err != nil && cfg.Retryable(m.Err) {
					retryMember(ctx, b, m, cfg, res)
				}
			}
		}
	}
	return res, ctx.Err()
}

// deliverOne delivers m alone under its own SMI; a structural failure
// of that delivery is m's outcome.
func deliverOne(ctx context.Context, b Backend, m *Member) {
	m.Attempts++
	if err := b.Deliver(ctx, []*Member{m}); err != nil {
		m.Err = err
	}
}

// deliverFallback re-attempts a member via its own per-patch SMI after
// a batch-path failure.
func deliverFallback(ctx context.Context, b Backend, m *Member, res *Result) {
	m.Fallback = true
	deliverOne(ctx, b, m)
	res.Singles++
	res.Degraded++
}

// retryMember redelivers a refused member with exponential backoff
// until it lands, the error stops being retryable, or attempts run
// out. Only this member is redelivered — its batch mates are done.
func retryMember(ctx context.Context, b Backend, m *Member, cfg Config, res *Result) {
	bo := timing.NewBackoff(cfg.Obs.Clock(), cfg.Backoff)
	for attempt := 0; attempt < cfg.MaxRetries && m.Err != nil && cfg.Retryable(m.Err); attempt++ {
		// The backoff sleep honors cancellation: a cancelled context
		// interrupts the wait immediately instead of letting a long
		// backoff pin the run.
		if !bo.Sleep(ctx) {
			m.Err = ctx.Err()
			return
		}
		deliverOne(ctx, b, m)
		res.Singles++
		res.Retries++
	}
}

// markUnprocessed records ctx's error on members that never got a
// delivery attempt, so a canceled run still reports every member.
func markUnprocessed(batches [][]*Member, err error) {
	for _, batch := range batches {
		for _, m := range batch {
			if m.Err == nil && m.Attempts == 0 {
				m.Err = err
			}
		}
	}
}
