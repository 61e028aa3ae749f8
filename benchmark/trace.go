package main

import (
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"sync"
	"sync/atomic"
	"time"
)

// span is one call the benchmark made into a layer's public API,
// recorded from the benchmark's side of the call.
type span struct {
	ID     int64  `json:"id"`
	Parent int64  `json:"parent"` // 0 for a root span
	Name   string `json:"name"`
	Req    string `json:"req"`      // request id: target ID or cycle number
	Start  int64  `json:"start_ns"` // since the traced phase began
	End    int64  `json:"end_ns"`
}

// tracer keeps the traced phase's spans in memory until the run ends.
// A nil *tracer records nothing: the untraced run passes nil, so its
// only cost there is a nil check.
type tracer struct {
	t0  time.Time
	ids atomic.Int64

	mu    sync.Mutex
	spans []span
}

func newTracer() *tracer { return &tracer{t0: time.Now()} }

// openSpan is a span between begin and end.
type openSpan struct {
	id, parent int64
	name, req  string
	start      time.Time
}

// begin opens a span; parent is the enclosing span's id, 0 for none.
func (t *tracer) begin(name, req string, parent int64) openSpan {
	if t == nil {
		return openSpan{}
	}
	return openSpan{id: t.ids.Add(1), parent: parent, name: name, req: req, start: time.Now()}
}

// end closes and records s.
func (t *tracer) end(s openSpan) {
	if t == nil {
		return
	}
	end := time.Now()
	t.mu.Lock()
	t.spans = append(t.spans, span{
		ID: s.id, Parent: s.parent, Name: s.name, Req: s.req,
		Start: int64(s.start.Sub(t.t0)), End: int64(end.Sub(t.t0)),
	})
	t.mu.Unlock()
}

// selfTimes returns, per span name, the summed self time of its spans:
// each span's duration minus the part of its interval its children
// cover. Children of one parent may overlap (the rollout patches two
// targets at once), so their intervals are merged before subtracting.
func (t *tracer) selfTimes() map[string]time.Duration {
	t.mu.Lock()
	defer t.mu.Unlock()
	children := map[int64][]span{}
	for _, s := range t.spans {
		if s.Parent != 0 {
			children[s.Parent] = append(children[s.Parent], s)
		}
	}
	out := map[string]time.Duration{}
	for _, s := range t.spans {
		out[s.Name] += time.Duration(s.End - s.Start - covered(s, children[s.ID]))
	}
	return out
}

// covered is the length of the union of the children's intervals,
// clipped to the parent's.
func covered(parent span, kids []span) int64 {
	sort.Slice(kids, func(i, j int) bool { return kids[i].Start < kids[j].Start })
	var total int64
	curStart, curEnd := int64(-1), int64(-1)
	for _, k := range kids {
		s, e := max(k.Start, parent.Start), min(k.End, parent.End)
		if e <= s {
			continue
		}
		if s > curEnd {
			total += curEnd - curStart
			curStart, curEnd = s, e
			continue
		}
		curEnd = max(curEnd, e)
	}
	return total + curEnd - curStart
}

// durations returns the durations of every span with the given name.
func (t *tracer) durations(name string) []time.Duration {
	t.mu.Lock()
	defer t.mu.Unlock()
	var ds []time.Duration
	for _, s := range t.spans {
		if s.Name == name {
			ds = append(ds, time.Duration(s.End-s.Start))
		}
	}
	return ds
}

// writeSpans writes the spans as one JSON document, ordered by start.
func (t *tracer) writeSpans(dir string) error {
	t.mu.Lock()
	spans := append([]span(nil), t.spans...)
	t.mu.Unlock()
	sort.Slice(spans, func(i, j int) bool { return spans[i].Start < spans[j].Start })
	b, err := json.Marshal(struct {
		Spans []span `json:"spans"`
	}{spans})
	if err != nil {
		return err
	}
	if err := os.WriteFile(filepath.Join(dir, "spans.json"), b, 0o644); err != nil {
		return fmt.Errorf("write spans: %w", err)
	}
	return nil
}
