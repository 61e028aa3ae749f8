package obs

import (
	"io"
	"net/http/httptest"
	"strings"
	"sync"
	"testing"
	"time"

	"kshot/internal/timing"
)

func TestNilSafety(t *testing.T) {
	// A nil Hooks (and nil components) must be permanently quiet, never
	// panic — the disabled-observability contract every instrumented
	// layer relies on.
	var h *Hooks
	h.Span(PhaseApply, "x", -1, time.Microsecond, 4)
	h.Point(PhaseWave, "x", 0)
	h.Count(CtrApplied, 1)
	h.Observe(HistBatchSize, 3)
	h.ObserveDur(HistSMIPause, time.Millisecond)
	if h.Now().IsZero() || (&Hooks{}).Clock() == nil {
		t.Error("a handle without a Wall must read the real clock")
	}

	var tr *Tracer
	tr.Emit(Event{})
	if snap := tr.Snapshot(); snap.Emitted != 0 || snap.Dropped != 0 || snap.Capacity != 0 || len(snap.Events) != 0 {
		t.Error("nil tracer reported non-zero state")
	}

	var m *Metrics
	m.Add("c", 1)
	m.Observe("h", 1)
	if got := m.Counter("c").Value(); got != 0 {
		t.Errorf("nil metrics counter = %d", got)
	}
	if snap := m.Snapshot(); len(snap.Counters) != 0 || len(snap.Hists) != 0 {
		t.Error("nil metrics snapshot not empty")
	}

	// Hooks with nil components: methods must not panic either.
	h2 := &Hooks{}
	h2.Span(PhaseApply, "x", -1, time.Microsecond, 4)
	h2.Count(CtrApplied, 1)
	h2.Observe(HistBatchSize, 3)
}

func TestTracerRingDropsOldest(t *testing.T) {
	tr := NewTracer(4)
	for i := 0; i < 10; i++ {
		tr.Emit(Event{Kind: KindPoint, Phase: PhaseWave, ID: "e", Wave: i})
	}
	snap := tr.Snapshot()
	if snap.Emitted != 10 || snap.Dropped != 6 || snap.Capacity != 4 {
		t.Fatalf("emitted=%d dropped=%d cap=%d, want 10/6/4", snap.Emitted, snap.Dropped, snap.Capacity)
	}
	if len(snap.Events) != 4 {
		t.Fatalf("retained %d events, want 4", len(snap.Events))
	}
	// Invariant: emitted == dropped + retained, and the retained window
	// is the newest events in emission order.
	if snap.Emitted != snap.Dropped+uint64(len(snap.Events)) {
		t.Errorf("ring invariant broken: %d != %d + %d",
			snap.Emitted, snap.Dropped, len(snap.Events))
	}
	for i, ev := range snap.Events {
		if want := uint64(6 + i); ev.Seq != want {
			t.Errorf("event %d seq = %d, want %d", i, ev.Seq, want)
		}
	}
}

func TestTracerRenderDeterministic(t *testing.T) {
	render := func() string {
		h := NewHooks(8, timing.NewFakeWall())
		h.Span(PhaseFetch, "CVE-X", -1, 1500*time.Nanosecond, 40)
		h.Point(PhaseWave, "wave[0]:2", 0)
		var b strings.Builder
		if err := h.Tracer.Snapshot().RenderText(&b); err != nil {
			t.Fatal(err)
		}
		return b.String()
	}
	a, b := render(), render()
	if a != b {
		t.Fatalf("renders differ under FakeWall:\n%s\nvs\n%s", a, b)
	}
	if !strings.Contains(a, "T_fetch") || !strings.Contains(a, "dur=1.500us bytes=40") {
		t.Errorf("unexpected span line:\n%s", a)
	}
	if !strings.Contains(a, "wave=0 id=wave[0]:2") {
		t.Errorf("unexpected point line:\n%s", a)
	}
	if strings.Contains(strings.SplitN(a, "\n", 2)[1], "wave=-1") {
		t.Errorf("wave=-1 must not render:\n%s", a)
	}
}

func TestTracerConcurrentEmit(t *testing.T) {
	tr := NewTracer(64)
	const goroutines, each = 8, 500
	var wg sync.WaitGroup
	for g := 0; g < goroutines; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < each; i++ {
				tr.Emit(Event{Kind: KindPoint, Phase: PhaseBatch, ID: "c"})
			}
		}()
	}
	wg.Wait()
	snap := tr.Snapshot()
	if snap.Emitted != goroutines*each {
		t.Errorf("emitted = %d, want %d", snap.Emitted, goroutines*each)
	}
	if snap.Dropped != snap.Emitted-uint64(len(snap.Events)) {
		t.Errorf("drop accounting: %d dropped, %d emitted, %d retained",
			snap.Dropped, snap.Emitted, len(snap.Events))
	}
	// Seq must be unique and the retained window contiguous.
	seen := make(map[uint64]bool, len(snap.Events))
	for _, ev := range snap.Events {
		if seen[ev.Seq] {
			t.Fatalf("duplicate seq %d", ev.Seq)
		}
		seen[ev.Seq] = true
	}
}

func TestHistogramBuckets(t *testing.T) {
	h := NewHistogram([]float64{1, 10, 100})
	for _, v := range []float64{0.5, 1, 1.5, 10, 99, 100, 1000} {
		h.Observe(v)
	}
	if h.Count() != 7 {
		t.Errorf("count = %d, want 7", h.Count())
	}
	if got, want := h.Sum(), 0.5+1+1.5+10+99+100+1000; got != want {
		t.Errorf("sum = %v, want %v", got, want)
	}
	// Bounds are inclusive upper bounds: 1 lands in le=1, 1000 in +Inf.
	m := NewMetrics()
	mh := m.HistogramWith("t", []float64{1, 10, 100})
	for _, v := range []float64{0.5, 1, 1.5, 10, 99, 100, 1000} {
		mh.Observe(v)
	}
	snap := m.Snapshot()
	if len(snap.Hists) != 1 {
		t.Fatalf("hists = %d", len(snap.Hists))
	}
	want := []uint64{2, 2, 2, 1} // le=1, le=10, le=100, +Inf
	for i, w := range want {
		if snap.Hists[0].Counts[i] != w {
			t.Errorf("bucket %d = %d, want %d", i, snap.Hists[0].Counts[i], w)
		}
	}
}

func TestMetricsRegistryConcurrent(t *testing.T) {
	m := NewMetrics()
	const goroutines, each = 8, 1000
	var wg sync.WaitGroup
	for g := 0; g < goroutines; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < each; i++ {
				m.Add("ctr", 1)
				m.Observe("lat_us", float64(i%7))
			}
		}()
	}
	wg.Wait()
	if got := m.Counter("ctr").Value(); got != goroutines*each {
		t.Errorf("counter = %d, want %d", got, goroutines*each)
	}
	snap := m.Snapshot()
	if len(snap.Hists) != 1 || snap.Hists[0].Count != goroutines*each {
		t.Errorf("histogram count = %+v", snap.Hists)
	}
	// The _us suffix selects latency buckets.
	if len(snap.Hists[0].Bounds) != len(LatencyBuckets) {
		t.Errorf("lat_us got %d bounds, want latency layout", len(snap.Hists[0].Bounds))
	}
}

func TestHTTPEndpoints(t *testing.T) {
	h := NewHooks(16, timing.NewFakeWall())
	h.Count(CtrApplied, 3)
	h.Span(PhaseApply, "CVE-Y", -1, 2*time.Microsecond, 8)
	h.ObserveDur(HistSMIPause, 5*time.Microsecond)

	srv := httptest.NewServer(h.Mux())
	defer srv.Close()

	get := func(path string) string {
		resp, err := srv.Client().Get(srv.URL + path)
		if err != nil {
			t.Fatal(err)
		}
		defer resp.Body.Close()
		var b strings.Builder
		if _, err := io.Copy(&b, resp.Body); err != nil {
			t.Fatal(err)
		}
		return b.String()
	}
	metrics := get("/metrics")
	if !strings.Contains(metrics, "patch.applied 3") {
		t.Errorf("/metrics missing counter:\n%s", metrics)
	}
	if !strings.Contains(metrics, "smi.pause_us count=1 sum=5.000") {
		t.Errorf("/metrics missing histogram:\n%s", metrics)
	}
	trace := get("/trace")
	if !strings.Contains(trace, "1 emitted, 1 retained, 0 dropped") {
		t.Errorf("/trace missing header:\n%s", trace)
	}
	if !strings.Contains(trace, "id=CVE-Y dur=2.000us bytes=8") {
		t.Errorf("/trace missing event:\n%s", trace)
	}

	// Handlers on a nil Hooks serve empty snapshots, not panics.
	nilSrv := httptest.NewServer((*Hooks)(nil).Mux())
	defer nilSrv.Close()
	resp, err := nilSrv.Client().Get(nilSrv.URL + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != 200 {
		t.Errorf("nil hooks /metrics status = %d", resp.StatusCode)
	}
}
