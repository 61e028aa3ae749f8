// Package evalharness regenerates every table and figure of the
// paper's evaluation (§VI) on the simulated platform:
//
//	Table I    — the 30-CVE benchmark suite
//	Table II   — SGX-side stage breakdown across patch sizes
//	Table III  — SMM-side stage breakdown across patch sizes
//	Figure 4   — SGX preparation time for six CVEs
//	Figure 5   — SMM patching time for six CVEs
//	Table IV   — general patching-system comparison
//	Table V    — kernel live patching comparison
//	RQ1        — correct patching of all 30 CVEs (exploit before/after)
//	§VI-C3     — Sysbench-style whole-system overhead
//
// It is shared by the root bench_test.go (which reports the same
// numbers as testing.B metrics) and by cmd/kshot-bench (which prints
// the tables and writes EXPERIMENTS-style output).
package evalharness

import (
	"bytes"
	"context"
	"fmt"
	"time"

	"kshot/internal/core"
	"kshot/internal/cvebench"
	"kshot/internal/isa"
	"kshot/internal/kcrypto"
	"kshot/internal/patch"
	"kshot/internal/patchserver"
	"kshot/internal/report"
)

// PaperSizes are the patch sizes of Tables II and III.
var PaperSizes = []int{40, 400, 4 << 10, 40 << 10, 400 << 10, 10 << 20}

// SizePoint is one row of the size sweep: per-stage virtual times for
// a patch of Size payload bytes.
type SizePoint struct {
	Size int

	// SGX side (Table II).
	Fetch      time.Duration
	Preprocess time.Duration
	Pass       time.Duration

	// SMM side (Table III).
	KeyGen  time.Duration
	Decrypt time.Duration
	Verify  time.Duration
	Apply   time.Duration
	Switch  time.Duration
}

// SGXTotal is Table II's Total column.
func (p SizePoint) SGXTotal() time.Duration { return p.Fetch + p.Preprocess + p.Pass }

// SMMTotal is Table III's Total column (key generation and switching
// included, as the paper's footnote states).
func (p SizePoint) SMMTotal() time.Duration {
	return p.KeyGen + p.Decrypt + p.Verify + p.Apply + p.Switch
}

// RunSizePoint measures one size on a System. The patch server
// serves a prebuilt patch whose single new function has exactly size
// payload bytes (a nop sled ending in ret, so valid, executable code),
// and the System applies it once and rolls it back, like every CVE of
// Figures 4/5.
func RunSizePoint(size int, alg kcrypto.HashAlg) (SizePoint, error) {
	if size < 1 {
		return SizePoint{}, fmt.Errorf("size sweep: size %d, want at least 1", size)
	}
	opts := core.WithPayloadReservation(core.Options{Version: "4.4", NumVCPUs: 1, HashAlg: alg}, size)
	payload := bytes.Repeat([]byte{0x90}, size) // nop
	payload[size-1] = 0xC3                      // ret
	bp := &patch.BinaryPatch{
		ID:            fmt.Sprintf("BENCH-%d", size),
		KernelVersion: opts.Version,
		Funcs: []patch.FuncPatch{{
			Name:    "bench_payload",
			Type:    patch.Type1,
			New:     true,
			Payload: payload,
		}},
	}
	st, err := measureOnce(opts, bp.ID, nil, bp)
	if err != nil {
		return SizePoint{}, fmt.Errorf("size %d: %w", size, err)
	}
	return SizePoint{
		Size:  size,
		Fetch: st.Fetch, Preprocess: st.Preprocess, Pass: st.Pass,
		KeyGen: st.KeyGen, Decrypt: st.Decrypt, Verify: st.Verify,
		Apply: st.Apply, Switch: st.Switch,
	}, nil
}

// RunSizeSweep measures every paper size.
func RunSizeSweep(alg kcrypto.HashAlg) ([]SizePoint, error) {
	out := make([]SizePoint, 0, len(PaperSizes))
	for _, size := range PaperSizes {
		pt, err := RunSizePoint(size, alg)
		if err != nil {
			return nil, err
		}
		out = append(out, pt)
	}
	return out, nil
}

// deterministicNote replaces a repetition count: every stage time is
// virtual, so one measurement is exact.
const deterministicNote = "virtual time, deterministic; cost model calibrated to the paper's testbed"

// Table2 renders the SGX operation breakdown (paper Table II).
func Table2(points []SizePoint) *report.Table {
	t := report.NewTable("TABLE II: Breakdown of SGX operations (us)",
		"Patch Size", "Fetching", "Pre-processing", "Passing", "Total")
	for _, p := range points {
		t.AddRow(report.Bytes(p.Size), report.Us(p.Fetch), report.Us(p.Preprocess),
			report.Us(p.Pass), report.Us(p.SGXTotal()))
	}
	t.AddNote(deterministicNote)
	return t
}

// Table3 renders the SMM operation breakdown (paper Table III).
func Table3(points []SizePoint) *report.Table {
	t := report.NewTable("TABLE III: Breakdown of SMM operations (us)",
		"Patch Size", "Data Decryption", "Patch Verification", "Patch Application", "Total*")
	for _, p := range points {
		t.AddRow(report.Bytes(p.Size), report.Us(p.Decrypt), report.Us(p.Verify),
			report.Us(p.Apply), report.Us(p.SMMTotal()))
	}
	t.AddNote("* includes key generation and SMM switching time")
	t.AddNote(deterministicNote)
	return t
}

// Deployment is a server+system pair for whole-system experiments.
type Deployment struct {
	Server  *patchserver.Server
	System  *core.System
	Entries []*cvebench.Entry
}

// NewDeployment provisions a system vulnerable to the given CVEs, with
// a patch server that can fix them, and makes the system's first
// contact (server attach, enclave load, channel bootstrap SMI) so that
// experiments, traces and injected faults see patching work only.
func NewDeployment(version string, numVCPUs int, alg kcrypto.HashAlg, entries ...*cvebench.Entry) (*Deployment, error) {
	return NewDeploymentDispatch(version, numVCPUs, alg, isa.DispatchBlocks, entries...)
}

// NewDeploymentDispatch is NewDeployment with an explicit vCPU
// execution engine: the golden phase report renders under both blocks
// and the oracle interpreter, and the differential verification suites
// run lockstep.
func NewDeploymentDispatch(version string, numVCPUs int, alg kcrypto.HashAlg, d isa.Dispatch, entries ...*cvebench.Entry) (*Deployment, error) {
	return deploy(core.Options{Version: version, NumVCPUs: numVCPUs, Dispatch: d, HashAlg: alg}, entries)
}

// deploy starts a patch server that fixes entries and also serves the
// prebuilt binary patches, provisions a System from opts that is
// vulnerable to entries, and makes the System's first contact.
func deploy(opts core.Options, entries []*cvebench.Entry, prebuilt ...*patch.BinaryPatch) (*Deployment, error) {
	srv, err := patchserver.New(patchserver.WithTreeProvider(cvebench.TreeProviderFor(entries...)))
	if err != nil {
		return nil, err
	}
	opts.ExtraFiles = make(map[string]string, len(entries))
	for _, e := range entries {
		srv.RegisterPatch(e.SourcePatch())
		opts.ExtraFiles[e.File] = e.Vuln
	}
	for _, bp := range prebuilt {
		if err := srv.RegisterBinaryPatch(bp); err != nil {
			srv.Close()
			return nil, err
		}
	}
	opts.ServerAddr = srv.Addr()
	sys, err := core.NewSystemCtx(context.Background(), opts)
	if err != nil {
		srv.Close()
		return nil, err
	}
	dep := &Deployment{Server: srv, System: sys, Entries: entries}
	if err := sys.Attach(context.Background()); err != nil {
		dep.Close()
		return nil, err
	}
	return dep, nil
}

// Close releases the deployment.
func (d *Deployment) Close() {
	d.System.Close()
	d.Server.Close()
}

// measureOnce deploys opts (see deploy), applies patch id once, rolls
// it back and returns the apply's stage times. Every size row and
// figure point is one such fetch, enclave prepare, stage, SMI, status
// and rollback cycle. Virtual time repeats exactly, so one cycle is
// the measurement.
func measureOnce(opts core.Options, id string, entries []*cvebench.Entry, prebuilt ...*patch.BinaryPatch) (core.StageTimes, error) {
	d, err := deploy(opts, entries, prebuilt...)
	if err != nil {
		return core.StageTimes{}, fmt.Errorf("%s: %w", id, err)
	}
	defer d.Close()
	ctx := context.Background()
	rep, err := d.System.Apply(ctx, id)
	if err != nil {
		return core.StageTimes{}, fmt.Errorf("%s apply: %w", id, err)
	}
	if _, err := d.System.Rollback(ctx, id); err != nil {
		return core.StageTimes{}, fmt.Errorf("%s rollback: %w", id, err)
	}
	return rep.Stages, nil
}

// CVEPoint is one x-axis entry of Figures 4/5.
type CVEPoint struct {
	CVE    string
	Bytes  int
	Stages core.StageTimes
}

// RunFigureCVEOnce measures one CVE with one apply+rollback cycle.
func RunFigureCVEOnce(cve string) (CVEPoint, error) {
	e, ok := cvebench.Get(cve)
	if !ok {
		return CVEPoint{}, fmt.Errorf("unknown CVE %q", cve)
	}
	st, err := measureOnce(core.Options{Version: "4.4", NumVCPUs: 1, HashAlg: kcrypto.HashSHA256}, e.CVE, []*cvebench.Entry{e})
	if err != nil {
		return CVEPoint{}, err
	}
	return CVEPoint{CVE: e.CVE, Bytes: st.PayloadBytes, Stages: st}, nil
}

// RunFigureCVEs measures the six whole-system CVEs of §VI-C3.
func RunFigureCVEs() ([]CVEPoint, error) {
	var out []CVEPoint
	for _, e := range cvebench.FigureSix() {
		pt, err := RunFigureCVEOnce(e.CVE)
		if err != nil {
			return nil, err
		}
		out = append(out, pt)
	}
	return out, nil
}

// Figure4 renders the SGX-side per-CVE breakdown (paper Figure 4).
func Figure4(points []CVEPoint) *report.Figure {
	f := &report.Figure{Title: "Fig. 4: SGX-based patch preparation time (us)"}
	series := []report.FigureSeries{
		{Name: "fetching"}, {Name: "pre-processing"}, {Name: "passing"},
	}
	for _, p := range points {
		f.XLabel = append(f.XLabel, fmt.Sprintf("%s (%s)", p.CVE, report.Bytes(p.Bytes)))
		series[0].Y = append(series[0].Y, us(p.Stages.Fetch))
		series[1].Y = append(series[1].Y, us(p.Stages.Preprocess))
		series[2].Y = append(series[2].Y, us(p.Stages.Pass))
	}
	f.Series = series
	return f
}

// Figure5 renders the SMM-side per-CVE breakdown (paper Figure 5).
func Figure5(points []CVEPoint) *report.Figure {
	f := &report.Figure{Title: "Fig. 5: SMM-based live patching time (us)"}
	series := []report.FigureSeries{
		{Name: "switch"}, {Name: "key gen"}, {Name: "decrypt"},
		{Name: "verify"}, {Name: "apply"},
	}
	for _, p := range points {
		f.XLabel = append(f.XLabel, fmt.Sprintf("%s (%s)", p.CVE, report.Bytes(p.Bytes)))
		series[0].Y = append(series[0].Y, us(p.Stages.Switch))
		series[1].Y = append(series[1].Y, us(p.Stages.KeyGen))
		series[2].Y = append(series[2].Y, us(p.Stages.Decrypt))
		series[3].Y = append(series[3].Y, us(p.Stages.Verify))
		series[4].Y = append(series[4].Y, us(p.Stages.Apply))
	}
	f.Series = series
	return f
}

func us(d time.Duration) float64 { return float64(d.Nanoseconds()) / 1000 }
