package main

import (
	"context"
	"fmt"
	"sync/atomic"
	"time"

	"kshot/internal/core"
	"kshot/internal/cvebench"
	"kshot/internal/kernel"
	"kshot/internal/mem"
	"kshot/internal/obs"
	"kshot/internal/patchserver"
)

// params sizes one workload run.
type params struct {
	seed int64
	// seconds sizes the timed phase: each workload fixes its amount of
	// work from it at a nominal rate measured on the reference machine,
	// so two runs with one seed do identical work and every count and
	// virtual-time metric repeats exactly.
	seconds float64
	// tiny shrinks fleets and warm-ups to test size.
	tiny bool
}

// phaseResult is what one timed phase measured. The caller times the
// phase and reads the allocator around it.
type phaseResult struct {
	// rates holds the units of work (targets, patches or guest calls)
	// per second of each chunk of the phase: a rollout batch, an
	// apply+rollback cycle, a second of guest time. Throughput is their
	// median, which one burst of interference from other tenants of the
	// machine does not move.
	rates    []float64
	patches  int // patches applied
	guestOps int // guest calls completed
	// guestAlloc is the heap bytes the guest's own calls account for;
	// alloc_kb_per_patch leaves it out, so the number of guest calls a
	// run happens to complete does not move it.
	guestAlloc float64
	attempted  int
	failed     int
	lat        []time.Duration // apply latency samples
	lagMax     time.Duration   // latest the load generator issued a request
	buildTime  time.Duration   // patch server build latency, summed
	// exact holds counts and virtual-time figures that repeat exactly
	// for a seed; compare mode fails on any difference.
	exact map[string]float64
}

func newPhaseResult() *phaseResult { return &phaseResult{exact: map[string]float64{}} }

// runner is one set-up workload instance.
type runner interface {
	// measure runs one timed phase, recording spans into tr (nil when
	// tracing is off).
	measure(ctx context.Context, tr *tracer) (*phaseResult, error)
	// check verifies the outputs of every phase so far; it runs outside
	// the timed window.
	check(ctx context.Context) error
	close()
}

// workloadDef declares one workload.
type workloadDef struct {
	name string
	why  string
	// loadThreads is how many threads generate load (at most 2, the
	// reference machine's core count); per-layer busy shares are taken
	// of the timed wall time times this.
	loadThreads int
	setup       func(ctx context.Context, p params) (runner, error)
}

var workloads = []workloadDef{
	{
		name:        "rollout",
		why:         "CVE batches rolled out over a 4000-target template-forked fleet: per-target provisioning, attach and orchestration costs",
		loadThreads: rolloutConcurrency,
		setup:       setupRollout,
	},
	{
		name:        "batch",
		why:         "one target applies and rolls back the 28-CVE wave repeatedly: enclave prep, SMM apply, crypto and memory staging",
		loadThreads: 1,
		setup:       setupBatch,
	},
	{
		name:        "under_load",
		why:         "open-loop apply and rollback every 50 ms while the guest runs flat out: instruction execution beside code writes",
		loadThreads: 2,
		setup:       setupUnderLoad,
	},
}

func lookupWorkload(name string) (workloadDef, bool) {
	for _, w := range workloads {
		if w.name == name {
			return w, true
		}
	}
	return workloadDef{}, false
}

// tableOneWave is the largest conflict-free wave of the Table I suite:
// the 28 CVEs one simulated kernel can host together.
func tableOneWave() []*cvebench.Entry {
	var best []*cvebench.Entry
	for _, w := range cvebench.ConflictFreeWaves(cvebench.All()) {
		if len(w) > len(best) {
			best = w
		}
	}
	return best
}

// vulnFiles is the ExtraFiles map that boots a kernel carrying every
// entry's vulnerable code.
func vulnFiles(entries []*cvebench.Entry) map[string]string {
	files := make(map[string]string, len(entries))
	for _, e := range entries {
		files[e.File] = e.Vuln
	}
	return files
}

func cveIDs(entries []*cvebench.Entry) []string {
	ids := make([]string, len(entries))
	for i, e := range entries {
		ids[i] = e.CVE
	}
	return ids
}

// patchServer is the workload's patch server, built from the public
// patchserver API, with its counters read back through an observer and
// its tree provider wrapped in a span.
type patchServer struct {
	srv   *patchserver.Server
	hooks *obs.Hooks
	tr    atomic.Pointer[tracer] // the traced phase's tracer, if any
}

func newPatchServer(entries []*cvebench.Entry) (*patchServer, error) {
	ps := &patchServer{hooks: &obs.Hooks{Metrics: obs.NewMetrics()}}
	trees := cvebench.TreeProviderFor(entries...)
	srv, err := patchserver.New(
		patchserver.WithTreeProvider(func(version string) (*kernel.SourceTree, error) {
			tr := ps.tr.Load()
			s := tr.begin("patchserver.tree", version, 0)
			defer tr.end(s)
			return trees(version)
		}),
		patchserver.WithServerObserver(ps.hooks),
	)
	if err != nil {
		return nil, fmt.Errorf("patch server: %w", err)
	}
	for _, e := range entries {
		srv.RegisterPatch(e.SourcePatch())
	}
	ps.srv = srv
	return ps, nil
}

// serverStats is a reading of the server's counters.
type serverStats struct {
	counts    map[string]float64 // the exact patchserver.* metrics
	buildTime time.Duration      // summed patch build latency
}

func (ps *patchServer) stats() serverStats {
	snap := ps.hooks.Metrics.Snapshot()
	raw := map[string]float64{}
	for _, c := range snap.Counters {
		raw[c.Name] = float64(c.Value)
	}
	st := serverStats{counts: map[string]float64{
		"patchserver.builds":       raw[obs.CtrBuilds],
		"patchserver.cache_misses": raw[obs.CtrCacheMisses],
		// A request that joins an in-flight build is served without a
		// build of its own, like a hit; whether it joins or hits depends
		// on timing, their sum does not.
		"patchserver.cache_hits":     raw[obs.CtrCacheHits] + raw[obs.CtrCacheCoalesced],
		"patchserver.conns_accepted": raw[obs.CtrConnAccepted],
	}}
	for _, h := range snap.Hists {
		if h.Name == obs.HistBuildLatency {
			st.buildTime = time.Duration(h.Sum * float64(time.Microsecond))
		}
	}
	return st
}

// since adds the server's activity since before into ph.
func (ps *patchServer) since(before serverStats, ph *phaseResult) {
	after := ps.stats()
	for k, v := range after.counts {
		ph.exact[k] = v - before.counts[k]
	}
	ph.buildTime = after.buildTime - before.buildTime
}

func (ps *patchServer) close() { ps.srv.Close() }

// ecalls reads the enclave-call counter from a target's observer.
func ecalls(h *obs.Hooks) float64 {
	return float64(h.Metrics.Counter(obs.CtrECalls).Value())
}

// privateKB is a system's copy-on-write dirty set in KiB.
func privateKB(sys *core.System) float64 {
	return float64(sys.Machine.Mem.ResidentStats().PrivateBytes) / 1024
}

// textDiff reports the kernel.text frames that differ from snap.
func textDiff(sys *core.System, snap *mem.Snapshot) error {
	dirty, err := sys.Machine.Mem.DiffFramesIn(snap, kernel.TextBase, kernel.TextRegionSize)
	if err != nil {
		return fmt.Errorf("kernel.text frame diff: %w", err)
	}
	if len(dirty) > 0 {
		return fmt.Errorf("kernel.text differs from the boot snapshot in %d frames (first at %#x)",
			len(dirty), mem.FrameAddr(dirty[0]))
	}
	return nil
}

// addBatchReport accumulates one ApplyAll report's pipeline counters
// and virtual pause into exact.
func addBatchReport(exact map[string]float64, rep *core.BatchReport) {
	exact["pipeline.smis"] += float64(rep.SMIs)
	exact["pipeline.batches"] += float64(rep.Batches)
	exact["pipeline.singles"] += float64(rep.Singles)
	exact["pipeline.retries"] += float64(rep.Retries)
	exact["pipeline.degraded"] += float64(rep.Degraded)
	exact[pauseNsSum] += float64(rep.SMMPause.Nanoseconds())
}

// pauseNsSum accumulates virtual SMM pause in whole nanoseconds, a sum
// that concurrent rollout workers reach exactly in any order; the run
// reports it per applied patch as pause_us_mean.
const pauseNsSum = "pause_ns_sum"
