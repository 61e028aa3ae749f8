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
	"context"
	"fmt"
	"time"

	"kshot/internal/core"
	"kshot/internal/cvebench"
	"kshot/internal/isa"
	"kshot/internal/kcrypto"
	"kshot/internal/kernel"
	"kshot/internal/machine"
	"kshot/internal/mem"
	"kshot/internal/patch"
	"kshot/internal/patchserver"
	"kshot/internal/report"
	"kshot/internal/sgx"
	"kshot/internal/sgxprep"
	"kshot/internal/smm"
	"kshot/internal/smmpatch"
	"kshot/internal/timing"
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

// sizeRig is a minimal platform for the size sweep: no kernel, no TCP
// — a synthetic new-function payload driven through the real enclave
// preparation and the real SMM processing path.
type sizeRig struct {
	m       *machine.Machine
	res     *mem.Reserved
	ctrl    *smm.Controller
	handler *smmpatch.Handler
	enclave *sgx.Enclave
	prog    *sgxprep.Program
	server  *kcrypto.Session
	clock   *timing.Clock
	model   timing.Model
}

const rigVersion = "4.4"

func newSizeRig(maxPayload int, alg kcrypto.HashAlg) (*sizeRig, error) {
	layout := mem.DefaultReservedLayout()
	physSize := uint64(machine.DefaultPhysSize)
	if n := uint64(maxPayload); n+(1<<20) > layout.WSize || n+(1<<20) > layout.XSize {
		// The paper's default 18 MB split cannot stage AND place the
		// 10 MB row; enlarge the reservation for this experiment (a
		// reproduction finding recorded in EXPERIMENTS.md).
		layout = mem.ReservedLayout{
			RWSize: mem.MemRWSize,
			WSize:  n + (2 << 20),
			XSize:  n + (2 << 20),
		}
	}
	m, err := machine.New(machine.Config{NumVCPUs: 1, PhysSize: physSize})
	if err != nil {
		return nil, err
	}
	res, err := mem.MapReservedLayout(m.Mem, kernel.ReservedBase, layout)
	if err != nil {
		m.Stop()
		return nil, err
	}
	clock := &timing.Clock{}
	model := timing.Calibrated()
	ctrl, err := smm.NewController(m, kernel.SMRAMBase, clock, model)
	if err != nil {
		m.Stop()
		return nil, err
	}
	serverKey := make([]byte, 32)
	for i := range serverKey {
		serverKey[i] = byte(i * 7)
	}
	sessionRoot := kcrypto.DeriveKey(serverKey, []byte("session root"))
	handler, err := smmpatch.New(smmpatch.Config{Reserved: res, KernelVersion: rigVersion, SessionRoot: sessionRoot})
	if err != nil {
		m.Stop()
		return nil, err
	}
	if err := handler.Register(ctrl); err != nil {
		m.Stop()
		return nil, err
	}
	if err := ctrl.Lock(); err != nil {
		m.Stop()
		return nil, err
	}

	serverSess, err := kcrypto.NewSession(serverKey, nil)
	if err != nil {
		m.Stop()
		return nil, err
	}
	prog, err := sgxprep.New(sgxprep.Config{
		ServerKey:     serverKey,
		KernelVersion: rigVersion,
		Placement:     handler.Placement(),
		HashAlg:       alg,
		Clock:         clock,
		Model:         model,
		SessionRoot:   sessionRoot,
	})
	if err != nil {
		m.Stop()
		return nil, err
	}
	plat, err := sgx.NewPlatform(m.Mem, kernel.EPCBase, kernel.EPCSize)
	if err != nil {
		m.Stop()
		return nil, err
	}
	enclave, err := plat.Load(prog, sgxprep.EnclavePages)
	if err != nil {
		m.Stop()
		return nil, err
	}
	if err := ctrl.Trigger(smmpatch.CmdKeyExchange, 0); err != nil {
		m.Stop()
		return nil, err
	}
	return &sizeRig{
		m: m, res: res, ctrl: ctrl, handler: handler,
		enclave: enclave, prog: prog, server: serverSess,
		clock: clock, model: model,
	}, nil
}

func (r *sizeRig) close() { r.m.Stop() }

// syntheticBlob builds the server's encrypted blob for a patch whose
// single new function has exactly n payload bytes (a nop sled ending
// in ret — valid, executable code).
func (r *sizeRig) syntheticBlob(id string, n int) ([]byte, error) {
	payload := make([]byte, n)
	for i := range payload {
		payload[i] = 0x90 // nop
	}
	payload[n-1] = 0xC3 // ret
	bp := &patch.BinaryPatch{
		ID:            id,
		KernelVersion: rigVersion,
		Funcs: []patch.FuncPatch{{
			Name:    "bench_payload",
			Type:    patch.Type1,
			New:     true,
			Payload: payload,
		}},
	}
	plain, err := patch.Encode(bp)
	if err != nil {
		return nil, err
	}
	return r.server.Encrypt(plain)
}

// roundTrip performs one full patch (and rollback, so the rig is
// reusable) and returns the per-stage virtual times.
func (r *sizeRig) roundTrip(id string, n int) (SizePoint, error) {
	pt := SizePoint{Size: n}
	blob, err := r.syntheticBlob(id, n)
	if err != nil {
		return pt, err
	}
	// Fetch (network transfer of the blob).
	pt.Fetch = r.clock.Span(func() {
		r.clock.Advance(timing.Linear(r.model.FetchFixed, r.model.FetchPerByte, len(blob)))
	})

	// Enclave preprocessing.
	smmPub, err := smmpatch.ReadSMMPub(r.m.Mem, mem.PrivKernel, r.res)
	if err != nil {
		return pt, err
	}
	memX, data := r.handler.Cursors()
	out, err := r.enclave.ECall(sgxprep.FnPrepare, sgxprep.EncodePrepareArgs(&sgxprep.PrepareArgs{
		ServerBlob: blob, SMMPub: smmPub, MemXCursor: memX, DataCursor: data,
	}))
	if err != nil {
		return pt, err
	}
	res, err := sgxprep.DecodeResult(out)
	if err != nil {
		return pt, err
	}
	pt.Preprocess = r.prog.LastBreakdown().Preprocess

	// Pass (stage ciphertext into the reserved region).
	pt.Pass = r.clock.Span(func() {
		r.clock.Advance(timing.Linear(r.model.PassFixed, r.model.PassPerByte, len(res.Ciphertext)))
	})
	if err := smmpatch.StageBlob(r.m.Mem, mem.PrivKernel, smmpatch.EnclavePubAddr(r.res), res.EnclavePub); err != nil {
		return pt, err
	}
	if err := smmpatch.StageBlob(r.m.Mem, mem.PrivKernel, smmpatch.PackageAddr(r.res), res.Ciphertext); err != nil {
		return pt, err
	}

	// SMM processing.
	if err := r.ctrl.Trigger(smmpatch.CmdProcessPackage, 0); err != nil {
		return pt, err
	}
	bd := r.handler.LastBreakdown()
	pt.KeyGen = bd.KeyGen
	pt.Decrypt = bd.Decrypt
	pt.Verify = bd.Verify
	pt.Apply = bd.Apply
	pt.Switch = r.model.SMMEntry + r.model.SMMExit

	// Roll back so the next iteration reuses the same mem_X space.
	if err := r.rollback(id); err != nil {
		return pt, err
	}
	return pt, nil
}

func (r *sizeRig) rollback(id string) error {
	smmPub, err := smmpatch.ReadSMMPub(r.m.Mem, mem.PrivKernel, r.res)
	if err != nil {
		return err
	}
	out, err := r.enclave.ECall(sgxprep.FnPrepareRollback, sgxprep.EncodeRollbackArgs(&sgxprep.RollbackArgs{ID: id, SMMPub: smmPub}))
	if err != nil {
		return err
	}
	res, err := sgxprep.DecodeResult(out)
	if err != nil {
		return err
	}
	if err := smmpatch.StageBlob(r.m.Mem, mem.PrivKernel, smmpatch.EnclavePubAddr(r.res), res.EnclavePub); err != nil {
		return err
	}
	if err := smmpatch.StageBlob(r.m.Mem, mem.PrivKernel, smmpatch.PackageAddr(r.res), res.Ciphertext); err != nil {
		return err
	}
	return r.ctrl.Trigger(smmpatch.CmdProcessPackage, 0)
}

// RunSizePoint measures one size with `iters` repetitions, averaged.
// iters must be at least 1.
func RunSizePoint(size, iters int, alg kcrypto.HashAlg) (SizePoint, error) {
	if iters < 1 {
		return SizePoint{}, fmt.Errorf("size sweep: iters %d, want at least 1", iters)
	}
	rig, err := newSizeRig(size, alg)
	if err != nil {
		return SizePoint{}, err
	}
	defer rig.close()
	var acc SizePoint
	for i := 0; i < iters; i++ {
		pt, err := rig.roundTrip(fmt.Sprintf("BENCH-%d", size), size)
		if err != nil {
			return SizePoint{}, fmt.Errorf("size %d iter %d: %w", size, i, err)
		}
		acc = addPoints(acc, pt)
	}
	return scalePoint(acc, iters), nil
}

// RunSizeSweep measures every paper size.
func RunSizeSweep(iters int, alg kcrypto.HashAlg) ([]SizePoint, error) {
	out := make([]SizePoint, 0, len(PaperSizes))
	for _, size := range PaperSizes {
		pt, err := RunSizePoint(size, iters, alg)
		if err != nil {
			return nil, err
		}
		out = append(out, pt)
	}
	return out, nil
}

func addPoints(a, b SizePoint) SizePoint {
	return SizePoint{
		Size:       b.Size,
		Fetch:      a.Fetch + b.Fetch,
		Preprocess: a.Preprocess + b.Preprocess,
		Pass:       a.Pass + b.Pass,
		KeyGen:     a.KeyGen + b.KeyGen,
		Decrypt:    a.Decrypt + b.Decrypt,
		Verify:     a.Verify + b.Verify,
		Apply:      a.Apply + b.Apply,
		Switch:     a.Switch + b.Switch,
	}
}

func scalePoint(a SizePoint, n int) SizePoint {
	d := time.Duration(n)
	return SizePoint{
		Size:       a.Size,
		Fetch:      a.Fetch / d,
		Preprocess: a.Preprocess / d,
		Pass:       a.Pass / d,
		KeyGen:     a.KeyGen / d,
		Decrypt:    a.Decrypt / d,
		Verify:     a.Verify / d,
		Apply:      a.Apply / d,
		Switch:     a.Switch / d,
	}
}

// Table2 renders the SGX operation breakdown (paper Table II).
func Table2(points []SizePoint, iters int) *report.Table {
	t := report.NewTable("TABLE II: Breakdown of SGX operations (us)",
		"Patch Size", "Fetching", "Pre-processing", "Passing", "Total")
	for _, p := range points {
		t.AddRow(report.Bytes(p.Size), report.Us(p.Fetch), report.Us(p.Preprocess),
			report.Us(p.Pass), report.Us(p.SGXTotal()))
	}
	t.AddNote(fmt.Sprintf("n = %d; virtual time, cost model calibrated to the paper's testbed", iters))
	return t
}

// Table3 renders the SMM operation breakdown (paper Table III).
func Table3(points []SizePoint, iters int) *report.Table {
	t := report.NewTable("TABLE III: Breakdown of SMM operations (us)",
		"Patch Size", "Data Decryption", "Patch Verification", "Patch Application", "Total*")
	for _, p := range points {
		t.AddRow(report.Bytes(p.Size), report.Us(p.Decrypt), report.Us(p.Verify),
			report.Us(p.Apply), report.Us(p.SMMTotal()))
	}
	t.AddNote("* includes key generation and SMM switching time")
	t.AddNote(fmt.Sprintf("n = %d; virtual time, cost model calibrated to the paper's testbed", iters))
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
	srv, err := patchserver.NewServer("127.0.0.1:0", cvebench.TreeProviderFor(entries...))
	if err != nil {
		return nil, err
	}
	extra := make(map[string]string, len(entries))
	for _, e := range entries {
		srv.RegisterPatch(e.SourcePatch())
		extra[e.File] = e.Vuln
	}
	sys, err := core.NewSystem(core.Options{
		Version:    version,
		NumVCPUs:   numVCPUs,
		Dispatch:   d,
		ExtraFiles: extra,
		ServerAddr: srv.Addr(),
		HashAlg:    alg,
	})
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

// CVEPoint is one x-axis entry of Figures 4/5.
type CVEPoint struct {
	CVE    string
	Bytes  int
	Stages core.StageTimes
}

// RunFigureCVEOnce measures one CVE with `iters` apply+rollback
// cycles, averaged. iters must be at least 1.
func RunFigureCVEOnce(cve string, iters int) (CVEPoint, error) {
	if iters < 1 {
		return CVEPoint{}, fmt.Errorf("figure CVE %s: iters %d, want at least 1", cve, iters)
	}
	e, ok := cvebench.Get(cve)
	if !ok {
		return CVEPoint{}, fmt.Errorf("unknown CVE %q", cve)
	}
	d, err := NewDeployment("4.4", 1, kcrypto.HashSHA256, e)
	if err != nil {
		return CVEPoint{}, fmt.Errorf("%s: %w", e.CVE, err)
	}
	defer d.Close()
	var acc core.StageTimes
	bytes := 0
	for i := 0; i < iters; i++ {
		rep, err := d.System.Apply(context.Background(), e.CVE)
		if err != nil {
			return CVEPoint{}, fmt.Errorf("%s apply: %w", e.CVE, err)
		}
		if _, err := d.System.Rollback(context.Background(), e.CVE); err != nil {
			return CVEPoint{}, fmt.Errorf("%s rollback: %w", e.CVE, err)
		}
		st := rep.Stages
		acc.Fetch += st.Fetch
		acc.Preprocess += st.Preprocess
		acc.Pass += st.Pass
		acc.KeyGen += st.KeyGen
		acc.Decrypt += st.Decrypt
		acc.Verify += st.Verify
		acc.Apply += st.Apply
		acc.Switch += st.Switch
		bytes = st.PayloadBytes
	}
	n := time.Duration(iters)
	return CVEPoint{
		CVE:   e.CVE,
		Bytes: bytes,
		Stages: core.StageTimes{
			Fetch: acc.Fetch / n, Preprocess: acc.Preprocess / n, Pass: acc.Pass / n,
			KeyGen: acc.KeyGen / n, Decrypt: acc.Decrypt / n, Verify: acc.Verify / n,
			Apply: acc.Apply / n, Switch: acc.Switch / n,
			PayloadBytes: bytes,
		},
	}, nil
}

// RunFigureCVEs measures the six whole-system CVEs of §VI-C3,
// averaging `iters` apply+rollback cycles each.
func RunFigureCVEs(iters int) ([]CVEPoint, error) {
	var out []CVEPoint
	for _, e := range cvebench.FigureSix() {
		pt, err := RunFigureCVEOnce(e.CVE, iters)
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
