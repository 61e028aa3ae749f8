package evalharness

import (
	"context"
	"fmt"
	"io"
	"time"

	"kshot/internal/core"
	"kshot/internal/cvebench"
	"kshot/internal/isa"
	"kshot/internal/kcrypto"
	"kshot/internal/obs"
	"kshot/internal/report"
	"kshot/internal/timing"
)

// PhaseOptions configures a phase-breakdown run.
type PhaseOptions struct {
	// Version is the kernel version to deploy (default "4.4").
	Version string

	// BatchSize/Workers tune the ApplyAll pipeline (pipeline defaults
	// when zero).
	BatchSize int
	Workers   int

	// SyncFetch single-threads the pipeline so the emitted trace is
	// deterministic — the golden test sets it; interactive runs need
	// not.
	SyncFetch bool

	// TraceCapacity sizes the event ring (obs.DefaultTraceCapacity when
	// zero).
	TraceCapacity int

	// Wall stamps trace events and paces retries; nil means real time,
	// the golden test passes timing.NewFakeWall() for replayable
	// output.
	Wall timing.WallClock

	// Dispatch selects the vCPU execution engine (blocks by default).
	// The rendered report must be byte-identical across modes — the
	// golden test asserts it for both blocks and oracle.
	Dispatch isa.Dispatch
}

// CVEPhase is one per-CVE row of the phase-breakdown table: the virtual
// time each paper phase consumed for that patch.
type CVEPhase struct {
	CVE   string
	Wave  int
	Bytes int

	Fetch    time.Duration // T_fetch: helper download
	Prep     time.Duration // T_prep: enclave preprocessing + mem_W pass
	Verify   time.Duration // T_verify: in-SMM keygen + decrypt + verify
	SMIEnter time.Duration // T_smi_enter: world switch into SMM
	Apply    time.Duration // T_apply: in-SMM application
	Resume   time.Duration // T_resume: RSM back to the OS
}

// Downtime is the OS-pause share of the patch: everything from SMI
// entry to resume.
func (c CVEPhase) Downtime() time.Duration {
	return c.Verify + c.SMIEnter + c.Apply + c.Resume
}

// PhaseBreakdown is the outcome of RunPhaseBreakdown: per-CVE phase
// rows plus the observability snapshot sources that produced them.
type PhaseBreakdown struct {
	Rows  []CVEPhase
	Waves int

	SMIs     uint64
	SMMPause time.Duration

	// Hooks holds the tracer and metrics registry the run populated;
	// RenderPhaseReport snapshots both.
	Hooks *obs.Hooks
}

// RunPhaseBreakdown deploys the full Table I suite through the batched
// ApplyAll pipeline with observability hooks installed, one
// conflict-free wave per deployment, and maps each patch's stage times
// onto the paper's phase vocabulary. Each deployment makes first
// contact (server attach and the key-exchange SMI) before the hooks
// are installed, so the trace and metrics cover exactly the patching
// work.
func RunPhaseBreakdown(opts PhaseOptions) (*PhaseBreakdown, error) {
	if opts.Version == "" {
		opts.Version = "4.4"
	}
	hooks := obs.NewHooks(opts.TraceCapacity, opts.Wall)
	waves := cvebench.ConflictFreeWaves(cvebench.All())
	out := &PhaseBreakdown{Waves: len(waves), Hooks: hooks}
	ctx := context.Background()
	model := timing.Calibrated()

	applyOpts := []core.ApplyOption{}
	if opts.BatchSize > 0 {
		applyOpts = append(applyOpts, core.WithBatchSize(opts.BatchSize))
	}
	if opts.Workers > 0 {
		applyOpts = append(applyOpts, core.WithFetchWorkers(opts.Workers))
	}
	if opts.SyncFetch {
		applyOpts = append(applyOpts, core.WithSyncFetch())
	}

	for wi, wave := range waves {
		cves := make([]string, len(wave))
		for i, e := range wave {
			cves[i] = e.CVE
		}
		d, err := NewDeploymentDispatch(opts.Version, 2, kcrypto.HashSHA256, opts.Dispatch, wave...)
		if err != nil {
			return nil, fmt.Errorf("wave %d deployment: %w", wi, err)
		}
		d.System.SetWallClock(opts.Wall)
		d.System.SetObserver(hooks)
		hooks.Point(obs.PhaseWave, fmt.Sprintf("wave[%d]:%d", wi, len(wave)), wi)

		rep, err := d.System.ApplyAll(ctx, cves, applyOpts...)
		if err != nil {
			d.Close()
			return nil, fmt.Errorf("wave %d ApplyAll: %w", wi, err)
		}
		if len(rep.Failed) > 0 {
			d.Close()
			for cve, ferr := range rep.Failed {
				return nil, fmt.Errorf("wave %d ApplyAll %s: %w", wi, cve, ferr)
			}
		}
		out.SMIs += rep.SMIs
		out.SMMPause += rep.SMMPause
		for _, r := range rep.Reports {
			st := r.Stages
			enter := splitSwitch(st.Switch, model)
			out.Rows = append(out.Rows, CVEPhase{
				CVE:      r.ID,
				Wave:     wi,
				Bytes:    st.PayloadBytes,
				Fetch:    st.Fetch,
				Prep:     st.Preprocess + st.Pass,
				Verify:   st.KeyGen + st.Decrypt + st.Verify,
				SMIEnter: enter,
				Apply:    st.Apply,
				Resume:   st.Switch - enter,
			})
		}
		d.Close()
	}
	return out, nil
}

// splitSwitch apportions a patch's world-switch share between SMI entry
// and resume by the model's SMMEntry:SMMExit ratio. The share may be
// amortized (batched SMIs), so the split scales rather than reading the
// model values directly.
func splitSwitch(sw time.Duration, model timing.Model) time.Duration {
	total := model.SMMEntry + model.SMMExit
	if total <= 0 {
		return sw / 2
	}
	return time.Duration(float64(sw) * float64(model.SMMEntry) / float64(total))
}

// PhaseTable renders the per-CVE phase rows, sorted by CVE ID so
// concurrent runs produce identical tables.
func PhaseTable(b *PhaseBreakdown) *report.Table {
	t := report.NewTable("Per-CVE phase breakdown: 30-CVE batched deployment (us)",
		"CVE", "Wave", "Bytes", "T_fetch", "T_prep", "T_verify", "T_smi_enter", "T_apply", "T_resume", "Downtime")
	var downtime time.Duration
	for _, r := range b.Rows {
		downtime += r.Downtime()
		t.AddRow(r.CVE, fmt.Sprintf("%d", r.Wave), report.Bytes(r.Bytes),
			report.Us(r.Fetch), report.Us(r.Prep), report.Us(r.Verify),
			report.Us(r.SMIEnter), report.Us(r.Apply), report.Us(r.Resume),
			report.Us(r.Downtime()))
	}
	t.SortRows(0)
	t.AddNote(fmt.Sprintf("%d patches over %d conflict-free waves; %d SMIs, total OS pause %sus",
		len(b.Rows), b.Waves, b.SMIs, report.Us(b.SMMPause)))
	t.AddNote(fmt.Sprintf("summed per-patch downtime %sus (batched SMIs amortize the world switch)",
		report.Us(downtime)))
	return t
}

// RenderPhaseReport writes the full observability report: the phase
// table, the metrics snapshot, and the event trace. The golden test
// asserts this output byte-for-byte; kshot-bench --trace prints it.
func RenderPhaseReport(w io.Writer, b *PhaseBreakdown) error {
	if err := PhaseTable(b).Render(w); err != nil {
		return err
	}
	if _, err := io.WriteString(w, "\n"); err != nil {
		return err
	}
	if err := b.Hooks.Metrics.Snapshot().RenderText(w); err != nil {
		return err
	}
	if _, err := io.WriteString(w, "\n"); err != nil {
		return err
	}
	return b.Hooks.Tracer.Snapshot().RenderText(w)
}
