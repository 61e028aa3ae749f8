package pipeline

import (
	"context"
	"errors"
	"fmt"
	"sync"
	"testing"
	"time"
)

// errRefused stands in for the SMM activeness check refusing a live
// target; errPoisoned for a verification failure.
var (
	errRefused  = errors.New("target active")
	errPoisoned = errors.New("verification failed")
)

// fakeBackend is an in-memory Backend that records delivery traffic
// and fails members according to scripted rules.
type fakeBackend struct {
	mu sync.Mutex

	// refuse[cve] = number of times Deliver refuses the member with
	// errRefused before letting it through.
	refuse map[string]int
	// poison holds CVEs that always fail with errPoisoned.
	poison map[string]bool
	// failBatch makes every multi-member Deliver call fail
	// structurally; failSingle does the same to one-member calls.
	failBatch  bool
	failSingle bool
	// fetchErr holds CVEs whose fetch fails.
	fetchErr map[string]bool

	batchCalls  [][]string // member CVEs per multi-member Deliver call
	singleCalls []string   // CVE per one-member Deliver call
	applied     []string   // CVEs that landed, in apply order
}

func newFakeBackend() *fakeBackend {
	return &fakeBackend{
		refuse:   map[string]int{},
		poison:   map[string]bool{},
		fetchErr: map[string]bool{},
	}
}

func (f *fakeBackend) FetchMany(ctx context.Context, cves []string) ([]Fetched, error) {
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	out := make([]Fetched, len(cves))
	for i, cve := range cves {
		out[i] = Fetched{CVE: cve, Blob: []byte("blob:" + cve), Time: time.Millisecond}
		if f.fetchErr[cve] {
			out[i].Blob = nil
			out[i].Err = fmt.Errorf("fetch %s: not found", cve)
		}
	}
	return out, nil
}

// outcome applies the scripted rules to one member.
func (f *fakeBackend) outcome(cve string) error {
	if f.poison[cve] {
		return errPoisoned
	}
	if f.refuse[cve] > 0 {
		f.refuse[cve]--
		return errRefused
	}
	f.applied = append(f.applied, cve)
	return nil
}

func (f *fakeBackend) Deliver(ctx context.Context, members []*Member) error {
	f.mu.Lock()
	defer f.mu.Unlock()
	if len(members) == 1 {
		f.singleCalls = append(f.singleCalls, members[0].CVE)
		if f.failSingle {
			return errors.New("SMI failed")
		}
	} else {
		ids := make([]string, len(members))
		for i, m := range members {
			ids[i] = m.CVE
		}
		f.batchCalls = append(f.batchCalls, ids)
		if f.failBatch {
			return errors.New("SMI failed")
		}
	}
	for _, m := range members {
		m.Err = f.outcome(m.CVE)
	}
	return nil
}

func cveList(n int) []string {
	out := make([]string, n)
	for i := range out {
		out[i] = fmt.Sprintf("CVE-2020-%04d", i)
	}
	return out
}

func TestRunBatchesInOrder(t *testing.T) {
	f := newFakeBackend()
	cves := cveList(10)
	res, err := Run(context.Background(), f, cves, Config{BatchSize: 4, Workers: 3})
	if err != nil {
		t.Fatalf("Run: %v", err)
	}
	if res.Batches != 3 || res.Singles != 0 {
		t.Fatalf("got %d batches, %d singles; want 3 batches (4+4+2)", res.Batches, res.Singles)
	}
	if len(f.applied) != 10 {
		t.Fatalf("applied %d patches, want 10", len(f.applied))
	}
	for i, cve := range cves {
		if f.applied[i] != cve {
			t.Fatalf("apply order broken at %d: got %s want %s", i, f.applied[i], cve)
		}
		m := res.Members[i]
		if m.Err != nil || m.Attempts != 1 || m.Fallback {
			t.Fatalf("member %s: err=%v attempts=%d fallback=%v", cve, m.Err, m.Attempts, m.Fallback)
		}
		if m.Stages.Fetch != time.Millisecond {
			t.Fatalf("member %s: fetch stage not recorded", cve)
		}
	}
}

func TestRunRetriesOnlyRefusedMember(t *testing.T) {
	f := newFakeBackend()
	f.refuse["CVE-2020-0002"] = 2 // refused twice, then lands
	cves := cveList(4)
	res, err := Run(context.Background(), f, cves, Config{
		BatchSize: 4,
		Backoff:   time.Microsecond,
		Retryable: func(err error) bool { return errors.Is(err, errRefused) },
	})
	if err != nil {
		t.Fatalf("Run: %v", err)
	}
	if res.Batches != 1 {
		t.Fatalf("got %d batch SMIs, want 1", res.Batches)
	}
	// Only the refused member is redelivered — twice, alone.
	if got := f.singleCalls; len(got) != 2 || got[0] != "CVE-2020-0002" || got[1] != "CVE-2020-0002" {
		t.Fatalf("per-patch redeliveries = %v, want [CVE-2020-0002 CVE-2020-0002]", got)
	}
	if res.Retries != 2 {
		t.Fatalf("Retries = %d, want 2", res.Retries)
	}
	for _, m := range res.Members {
		if m.Err != nil {
			t.Fatalf("member %s failed: %v", m.CVE, m.Err)
		}
	}
	if m := res.Members[2]; m.Attempts != 3 {
		t.Fatalf("refused member attempts = %d, want 3 (batch + 2 retries)", m.Attempts)
	}
	if len(f.applied) != 4 {
		t.Fatalf("applied %d, want 4", len(f.applied))
	}
}

func TestRunRetriesExhaust(t *testing.T) {
	f := newFakeBackend()
	f.refuse["CVE-2020-0001"] = 99
	res, err := Run(context.Background(), f, cveList(2), Config{
		BatchSize:  2,
		MaxRetries: 2,
		Backoff:    time.Microsecond,
		Retryable:  func(err error) bool { return errors.Is(err, errRefused) },
	})
	if err != nil {
		t.Fatalf("Run: %v", err)
	}
	m := res.Members[1]
	if !errors.Is(m.Err, errRefused) {
		t.Fatalf("exhausted member err = %v, want errRefused", m.Err)
	}
	if m.Attempts != 3 { // batch + 2 retries
		t.Fatalf("attempts = %d, want 3", m.Attempts)
	}
	if res.Members[0].Err != nil {
		t.Fatalf("healthy batch mate failed: %v", res.Members[0].Err)
	}
}

func TestRunDegradesPoisonedMemberToPerPatch(t *testing.T) {
	f := newFakeBackend()
	f.poison["CVE-2020-0001"] = true
	res, err := Run(context.Background(), f, cveList(3), Config{BatchSize: 3})
	if err != nil {
		t.Fatalf("Run: %v", err)
	}
	m := res.Members[1]
	if !errors.Is(m.Err, errPoisoned) || !m.Fallback || m.Attempts != 2 {
		t.Fatalf("poisoned member: err=%v fallback=%v attempts=%d; want poisoned/fallback/2", m.Err, m.Fallback, m.Attempts)
	}
	if res.Degraded != 1 || res.Singles != 1 {
		t.Fatalf("Degraded=%d Singles=%d, want 1/1", res.Degraded, res.Singles)
	}
	// Batch mates applied exactly once despite the poisoned member.
	if len(f.applied) != 2 {
		t.Fatalf("applied = %v, want the 2 healthy members", f.applied)
	}
}

func TestRunDegradesWholeBatchOnStructuralFailure(t *testing.T) {
	f := newFakeBackend()
	f.failBatch = true
	res, err := Run(context.Background(), f, cveList(3), Config{BatchSize: 3})
	if err != nil {
		t.Fatalf("Run: %v", err)
	}
	if len(f.batchCalls) != 1 {
		t.Fatalf("batch attempts = %d, want 1", len(f.batchCalls))
	}
	if len(f.singleCalls) != 3 || res.Degraded != 3 {
		t.Fatalf("per-patch fallbacks = %v (Degraded=%d), want all 3 members", f.singleCalls, res.Degraded)
	}
	for _, m := range res.Members {
		if m.Err != nil || !m.Fallback {
			t.Fatalf("member %s: err=%v fallback=%v", m.CVE, m.Err, m.Fallback)
		}
	}
}

// TestRunSingleStructuralFailureIsMemberError: when a one-member
// delivery fails as a whole, the failure is that member's outcome —
// there is nothing left to degrade to.
func TestRunSingleStructuralFailureIsMemberError(t *testing.T) {
	f := newFakeBackend()
	f.failBatch, f.failSingle = true, true
	res, err := Run(context.Background(), f, cveList(3), Config{BatchSize: 3})
	if err != nil {
		t.Fatalf("Run: %v", err)
	}
	if len(f.singleCalls) != 3 || res.Degraded != 3 || len(f.applied) != 0 {
		t.Fatalf("singles = %v, Degraded = %d, applied = %v", f.singleCalls, res.Degraded, f.applied)
	}
	for _, m := range res.Members {
		if m.Err == nil || m.Attempts != 2 {
			t.Fatalf("member %s: err=%v attempts=%d, want the SMI failure after 2 attempts", m.CVE, m.Err, m.Attempts)
		}
	}
}

// TestRunLoneMemberDeliveredOnce: a member delivered alone — the only
// CVE of a run, or the single one left at the end of one — that fails
// without a retryable error already had its per-patch SMI, so it is not
// delivered again.
func TestRunLoneMemberDeliveredOnce(t *testing.T) {
	cases := []struct {
		name       string
		n, batch   int
		poison     string // a CVE that fails verification
		failSingle bool   // every one-member delivery fails structurally
		batches    int
	}{
		{name: "lone poisoned member", n: 1, batch: 8, poison: "CVE-2020-0000"},
		{name: "lone member, failed SMI", n: 1, batch: 8, failSingle: true},
		{name: "poisoned single at the end of a run", n: 3, batch: 2, poison: "CVE-2020-0002", batches: 1},
		{name: "failed SMI of the single at the end of a run", n: 3, batch: 2, failSingle: true, batches: 1},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			f := newFakeBackend()
			if tc.poison != "" {
				f.poison[tc.poison] = true
			}
			f.failSingle = tc.failSingle
			res, err := Run(context.Background(), f, cveList(tc.n), Config{BatchSize: tc.batch})
			if err != nil {
				t.Fatalf("Run: %v", err)
			}
			if res.Batches != tc.batches || res.Singles != 1 || res.Degraded != 0 || len(f.singleCalls) != 1 {
				t.Fatalf("Batches=%d Singles=%d Degraded=%d single deliveries %v, want %d/1/0 and one delivery",
					res.Batches, res.Singles, res.Degraded, f.singleCalls, tc.batches)
			}
			last := res.Members[tc.n-1]
			if last.Err == nil || last.Attempts != 1 || last.Fallback {
				t.Fatalf("lone member: err=%v attempts=%d fallback=%v, want its failure after 1 attempt", last.Err, last.Attempts, last.Fallback)
			}
			if len(f.applied) != tc.n-1 {
				t.Fatalf("applied = %v, want the %d batched members", f.applied, tc.n-1)
			}
		})
	}
}

func TestRunFetchFailureSkipsMember(t *testing.T) {
	f := newFakeBackend()
	f.fetchErr["CVE-2020-0000"] = true
	res, err := Run(context.Background(), f, cveList(3), Config{BatchSize: 3})
	if err != nil {
		t.Fatalf("Run: %v", err)
	}
	if res.Members[0].Err == nil || res.Members[0].Attempts != 0 {
		t.Fatalf("unfetched member: err=%v attempts=%d", res.Members[0].Err, res.Members[0].Attempts)
	}
	if len(f.applied) != 2 {
		t.Fatalf("applied = %v, want the 2 fetched members", f.applied)
	}
}

func TestRunSingleMemberBatchUsesPerPatchSMI(t *testing.T) {
	f := newFakeBackend()
	res, err := Run(context.Background(), f, cveList(1), Config{BatchSize: 8})
	if err != nil {
		t.Fatalf("Run: %v", err)
	}
	if res.Batches != 0 || res.Singles != 1 || res.Degraded != 0 {
		t.Fatalf("Batches=%d Singles=%d Degraded=%d, want 0/1/0", res.Batches, res.Singles, res.Degraded)
	}
}

func TestRunCancellationMarksUnprocessed(t *testing.T) {
	f := newFakeBackend()
	ctx, cancel := context.WithCancel(context.Background())
	cancel() // canceled before any delivery
	res, err := Run(ctx, f, cveList(6), Config{BatchSize: 2})
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("Run err = %v, want context.Canceled", err)
	}
	if len(f.batchCalls) != 0 && len(f.singleCalls) != 0 {
		// Workers may have raced a fetch, but nothing may be delivered.
		t.Fatalf("deliveries after cancel: batches=%v singles=%v", f.batchCalls, f.singleCalls)
	}
	for _, m := range res.Members {
		if m.Attempts == 0 && m.Err == nil {
			t.Fatalf("member %s left unmarked after cancellation", m.CVE)
		}
	}
}

func TestRunEmpty(t *testing.T) {
	res, err := Run(context.Background(), newFakeBackend(), nil, Config{})
	if err != nil || len(res.Members) != 0 || res.Batches+res.Singles != 0 {
		t.Fatalf("empty run: res=%+v err=%v", res, err)
	}
}

// connBackend is a fakeBackend whose fetches serialize on one mutex, as
// every fetch of a System does on its one server connection, and
// records which batch took the connection in what order.
type connBackend struct {
	*fakeBackend
	conn  sync.Mutex
	order []string // first CVE of each fetched batch, in fetch order
}

func (c *connBackend) FetchMany(ctx context.Context, cves []string) ([]Fetched, error) {
	c.conn.Lock()
	defer c.conn.Unlock()
	c.order = append(c.order, cves[0])
	time.Sleep(100 * time.Microsecond) // the burst's round trip
	return c.fakeBackend.FetchMany(ctx, cves)
}

// Batches are fetched in request order whatever the number of fetch
// slots: delivery waits for batch 0, so fetching a later batch first
// only delays it.
func TestPrefetchInRequestOrder(t *testing.T) {
	for _, workers := range []int{2, 4} {
		for _, size := range []int{1, 2} {
			t.Run(fmt.Sprintf("workers=%d/batch=%d", workers, size), func(t *testing.T) {
				for run := 0; run < 10; run++ {
					b := &connBackend{fakeBackend: newFakeBackend()}
					cves := cveList(10)
					res, err := Run(context.Background(), b, cves, Config{BatchSize: size, Workers: workers})
					if err != nil {
						t.Fatalf("Run: %v", err)
					}
					var want []string
					for i := 0; i < len(cves); i += size {
						want = append(want, cves[i])
					}
					if fmt.Sprint(b.order) != fmt.Sprint(want) {
						t.Fatalf("run %d: batches fetched in order %v, want %v", run, b.order, want)
					}
					for _, m := range res.Members {
						if m.Err != nil {
							t.Fatalf("run %d: %s: %v", run, m.CVE, m.Err)
						}
					}
				}
			})
		}
	}
}
