package main

import (
	"testing"
	"time"
)

// TestSelfTimesMergeOverlappingChildren checks self time when children
// overlap each other and stick out of their parent.
func TestSelfTimesMergeOverlappingChildren(t *testing.T) {
	tr := newTracer()
	tr.spans = []span{
		{ID: 1, Name: "orchestrator.run", Start: 0, End: 100},
		{ID: 2, Parent: 1, Name: "core.apply_all", Start: 10, End: 30},
		{ID: 3, Parent: 1, Name: "core.apply_all", Start: 20, End: 40},
		{ID: 4, Parent: 1, Name: "core.close", Start: 60, End: 70},
		{ID: 5, Parent: 1, Name: "core.close", Start: 95, End: 120},
	}
	got := tr.selfTimes()
	// Children cover [10,40), [60,70) and [95,100) of the parent.
	if want := time.Duration(100 - 30 - 10 - 5); got["orchestrator.run"] != want {
		t.Errorf("orchestrator.run self = %v, want %v", got["orchestrator.run"], want)
	}
	if want := time.Duration(40); got["core.apply_all"] != want {
		t.Errorf("core.apply_all self = %v, want %v", got["core.apply_all"], want)
	}
	if want := time.Duration(35); got["core.close"] != want {
		t.Errorf("core.close self = %v, want %v", got["core.close"], want)
	}
}
