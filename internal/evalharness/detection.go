package evalharness

import (
	"context"
	"fmt"
	"sort"
	"time"

	"kshot/internal/core"
	"kshot/internal/cvebench"
	"kshot/internal/introspect"
	"kshot/internal/mem"
	"kshot/internal/patchserver"
	"kshot/internal/workload"
)

// Detection-latency experiment: with the event-driven introspection
// layer sweeping kernel text at a fixed period, how long does a
// kernel-text tamper go unnoticed, and what does the always-on event
// channel cost a running workload? The sweep period is the knob: a
// shorter period shrinks the detection window and buys it with sweep
// overhead.

// DetectionPeriodResult is one sweep period's latency distribution.
type DetectionPeriodResult struct {
	Period time.Duration `json:"period_ns"`
	Trials int           `json:"trials"`

	P50  time.Duration `json:"p50_ns"`
	P99  time.Duration `json:"p99_ns"`
	Mean time.Duration `json:"mean_ns"`

	// Sweeps is how many background sweeps ran during the trials —
	// the work the period buys the latency with.
	Sweeps uint64 `json:"sweeps"`
}

// DetectionBenchResult is the full experiment: latency versus sweep
// period, plus the event channel's cost to a patched workload.
type DetectionBenchResult struct {
	CVE     string                  `json:"cve"`
	Periods []DetectionPeriodResult `json:"periods"`

	// BaselineOpsPerSec is workload throughput with introspection
	// disabled (every hook nil); EnabledOpsPerSec has the channel
	// wired and the fastest sweep period running. OverheadPct is the
	// relative cost.
	BaselineOpsPerSec float64 `json:"baseline_ops_per_sec"`
	EnabledOpsPerSec  float64 `json:"enabled_ops_per_sec"`
	OverheadPct       float64 `json:"overhead_pct"`
	WorkloadOps       uint64  `json:"workload_ops"`
}

// detectionDeployment boots one introspected system against a shared
// server/template fixture.
type detectionFixture struct {
	srv *patchserver.Server
	tc  *core.TemplateCache
	e   *cvebench.Entry
}

func newDetectionFixture(cve string) (*detectionFixture, error) {
	e, ok := cvebench.Get(cve)
	if !ok {
		return nil, fmt.Errorf("unknown CVE %q", cve)
	}
	srv, err := patchserver.New(patchserver.WithTreeProvider(cvebench.TreeProviderFor(e)))
	if err != nil {
		return nil, err
	}
	srv.RegisterPatch(e.SourcePatch())
	return &detectionFixture{srv: srv, tc: core.NewTemplateCache(), e: e}, nil
}

func (f *detectionFixture) Close() {
	f.tc.Close()
	f.srv.Close()
}

func (f *detectionFixture) system(cfg *introspect.Config) (*core.System, error) {
	return core.NewSystemCtx(context.Background(), core.Options{
		Version:       "4.4",
		ExtraFiles:    map[string]string{f.e.File: f.e.Vuln},
		ServerAddr:    f.srv.Addr(),
		TemplateCache: f.tc,
		Introspection: cfg,
	})
}

// measureDetection runs trials tamper-inject/detect cycles at one
// background sweep period and returns the latency distribution.
func (f *detectionFixture) measureDetection(period time.Duration, trials int) (DetectionPeriodResult, error) {
	out := DetectionPeriodResult{Period: period, Trials: trials}
	sys, err := f.system(&introspect.Config{SweepEvery: period})
	if err != nil {
		return out, err
	}
	defer sys.Close()
	det := sys.Introspection()
	ch := sys.IntrospectionEvents()

	addr, err := sys.Kernel.FuncAddr(f.e.Functions[0])
	if err != nil {
		return out, err
	}
	lats := make([]time.Duration, 0, trials)
	var mean time.Duration
	for i := 0; i < trials; i++ {
		tgt := addr + uint64(i%16)
		var orig [1]byte
		if err := sys.Machine.Mem.Read(mem.PrivKernel, tgt, orig[:]); err != nil {
			return out, err
		}
		if err := sys.Machine.Mem.Write(mem.PrivKernel, tgt, []byte{orig[0] ^ 0xFF}); err != nil {
			return out, err
		}
		deadline := time.Now().Add(5*time.Second + 10*period)
		var lat time.Duration
		for found := false; !found; {
			for _, v := range det.TakeVerdicts() {
				if v.Kind == introspect.TamperDetected {
					lat, found = v.Latency, true
					break
				}
			}
			if !found {
				if time.Now().After(deadline) {
					return out, fmt.Errorf("tamper at %#x never detected (period %v)", tgt, period)
				}
				time.Sleep(period / 4)
			}
		}
		// Restore under a trusted window + non-patch SMI bracket, the
		// way the pipeline repairs text: the event classifies as
		// in-SMI and the window defers the concurrent sweeps' frame
		// diff until the close rebaselines.
		det.BeginTrustedWindow()
		ch.OnSMIEnter(0)
		if err := sys.Machine.Mem.Write(mem.PrivKernel, tgt, orig[:]); err != nil {
			det.EndTrustedWindow()
			return out, err
		}
		ch.OnSMIExit(0, 0)
		det.EndTrustedWindow()
		lats = append(lats, lat)
		mean += lat
	}
	sort.Slice(lats, func(i, j int) bool { return lats[i] < lats[j] })
	out.P50 = lats[len(lats)/2]
	out.P99 = lats[(len(lats)*99)/100]
	out.Mean = mean / time.Duration(len(lats))
	out.Sweeps = det.Stats().Sweeps
	return out, nil
}

// measureWorkload applies the patch and drives the mixed workload for
// ops operations, with introspection either absent or sweeping.
func (f *detectionFixture) measureWorkload(cfg *introspect.Config, ops uint64) (float64, error) {
	sys, err := f.system(cfg)
	if err != nil {
		return 0, err
	}
	defer sys.Close()
	if _, err := sys.Apply(context.Background(), f.e.CVE); err != nil {
		return 0, err
	}
	stats, err := workload.New(sys.Kernel, workload.Mixed).RunOps(ops)
	if err != nil {
		return 0, err
	}
	return stats.OpsPerSec(), nil
}

// RunDetectionBench measures tamper-detection latency at each sweep
// period (trials injections per period) and the workload overhead of
// enabling the event channel, sweeping at the fastest given period.
// trials and ops must be at least 1; nil periods select the ones the
// EXPERIMENTS tables use.
func RunDetectionBench(trials int, periods []time.Duration, ops uint64) (*DetectionBenchResult, error) {
	if trials < 1 {
		return nil, fmt.Errorf("detection bench: trials %d, want at least 1", trials)
	}
	if ops == 0 {
		return nil, fmt.Errorf("detection bench: ops 0, want at least 1")
	}
	if len(periods) == 0 {
		periods = []time.Duration{200 * time.Microsecond, time.Millisecond, 5 * time.Millisecond}
	}
	f, err := newDetectionFixture("CVE-2014-0196")
	if err != nil {
		return nil, err
	}
	defer f.Close()

	out := &DetectionBenchResult{CVE: f.e.CVE, WorkloadOps: ops}
	fastest := periods[0]
	for _, p := range periods {
		if p < fastest {
			fastest = p
		}
		r, err := f.measureDetection(p, trials)
		if err != nil {
			return nil, err
		}
		out.Periods = append(out.Periods, r)
	}

	if out.BaselineOpsPerSec, err = f.measureWorkload(nil, ops); err != nil {
		return nil, err
	}
	if out.EnabledOpsPerSec, err = f.measureWorkload(&introspect.Config{SweepEvery: fastest}, ops); err != nil {
		return nil, err
	}
	if out.BaselineOpsPerSec > 0 {
		out.OverheadPct = 100 * (1 - out.EnabledOpsPerSec/out.BaselineOpsPerSec)
	}
	return out, nil
}
