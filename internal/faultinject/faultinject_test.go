package faultinject

import (
	"bytes"
	"errors"
	"reflect"
	"testing"
	"time"
)

// Identical seeds must derive identical schedules, and a point's
// schedule must not depend on which other points are armed.
func TestPlanDeterministic(t *testing.T) {
	for seed := int64(0); seed < 50; seed++ {
		a := NewPlan(seed, PlanConfig{})
		b := NewPlan(seed, PlanConfig{})
		if !reflect.DeepEqual(a.Faults(), b.Faults()) {
			t.Fatalf("seed %d: plans differ", seed)
		}
		solo := NewPlan(seed, PlanConfig{Points: []Point{SMMRefuse}})
		if !reflect.DeepEqual(solo.Scheduled(SMMRefuse), a.Scheduled(SMMRefuse)) {
			t.Fatalf("seed %d: %s schedule depends on other armed points", seed, SMMRefuse)
		}
	}
}

func TestPlanDiffersAcrossSeeds(t *testing.T) {
	a := NewPlan(1, PlanConfig{})
	b := NewPlan(2, PlanConfig{})
	if reflect.DeepEqual(a.Faults(), b.Faults()) {
		t.Fatalf("seeds 1 and 2 produced identical plans")
	}
}

func TestPlanRespectsBudget(t *testing.T) {
	cfg := PlanConfig{Prob: 1.0, MaxPerPoint: 3, Horizon: 10}
	p := NewPlan(7, cfg)
	for _, pt := range Points() {
		s := p.Scheduled(pt)
		if len(s) != 3 {
			t.Fatalf("%s: got %d faults, want 3", pt, len(s))
		}
		for i, f := range s {
			if f.Call != i {
				t.Fatalf("%s: prob 1 should fire on consecutive calls, got %+v", pt, s)
			}
		}
	}
}

func TestNilSetIsQuiet(t *testing.T) {
	var s *Set
	for _, pt := range Points() {
		if f, ok := s.Take(pt); ok || f != (Fault{}) {
			t.Fatalf("nil set fired %s: %+v", pt, f)
		}
	}
	if _, ok := New(nil).Take(SMMRefuse); ok {
		t.Fatal("set without a plan fired")
	}
	if s.Calls(SMMRefuse) != 0 || s.Fired() != 0 || s.Log() != nil {
		t.Fatal("nil set has state")
	}
}

func TestExactFiresOnScheduledCalls(t *testing.T) {
	s := New(Exact(
		Fault{Point: SMMRefuse, Call: 1},
		Fault{Point: SMMRefuse, Call: 3},
	))
	var fired []bool
	for i := 0; i < 5; i++ {
		_, ok := s.Take(SMMRefuse)
		fired = append(fired, ok)
	}
	want := []bool{false, true, false, true, false}
	if !reflect.DeepEqual(fired, want) {
		t.Fatalf("fired %v, want %v", fired, want)
	}
	if s.Calls(SMMRefuse) != 5 {
		t.Fatalf("calls = %d, want 5", s.Calls(SMMRefuse))
	}
	if s.Fired() != 2 {
		t.Fatalf("fired count = %d, want 2", s.Fired())
	}
}

func TestErrorUnwrapsToSentinel(t *testing.T) {
	s := New(Exact(Fault{Point: SGXECallFail, Call: 0}))
	f, ok := s.Take(SGXECallFail)
	if !ok {
		t.Fatal("expected the fault to fire")
	}
	err := f.Err()
	if !errors.Is(err, ErrInjected) {
		t.Fatalf("error %v does not unwrap to ErrInjected", err)
	}
	var inj *Injected
	if !errors.As(err, &inj) || inj.Point != SGXECallFail || inj.Call != 0 {
		t.Fatalf("error %v is not an *Injected for %s", err, SGXECallFail)
	}
}

func TestCorruptFlipsExactlyOneBit(t *testing.T) {
	s := New(Exact(Fault{Point: MemWCorrupt, Call: 0, Bit: 13}))
	orig := bytes.Repeat([]byte{0x5A}, 8)
	buf := append([]byte(nil), orig...)
	f, ok := s.Take(MemWCorrupt)
	if !ok {
		t.Fatal("corrupt did not fire")
	}
	f.FlipBit(buf)
	diffBits := 0
	for i := range buf {
		for b := 0; b < 8; b++ {
			if (buf[i]^orig[i])&(1<<b) != 0 {
				diffBits++
			}
		}
	}
	if diffBits != 1 {
		t.Fatalf("corrupt flipped %d bits, want 1", diffBits)
	}
}

func TestTruncateShortens(t *testing.T) {
	cases := []struct {
		frac    float64
		n, want int
	}{
		{0.5, 100, 50},
		{0.999, 1, 0}, // Frac rounding can never keep the whole body.
		{0.999, 1000, 999},
		{0, 0, 0}, // an empty body stays empty
	}
	for _, tc := range cases {
		f := Fault{Point: FetchTruncate, Frac: tc.frac}
		if got := f.Keep(tc.n); got != tc.want {
			t.Errorf("Frac %v: Keep(%d) = %d, want %d", tc.frac, tc.n, got, tc.want)
		}
	}
}

func TestDelayReturnsPlannedDuration(t *testing.T) {
	s := New(Exact(Fault{Point: FetchDelay, Call: 0, Delay: 42 * time.Microsecond}))
	f, ok := s.Take(FetchDelay)
	if !ok || f.Delay != 42*time.Microsecond {
		t.Fatalf("delay = (%v,%v), want (42µs,true)", f.Delay, ok)
	}
}

// Two Sets driven by the same plan and consulted in the same order
// must fire identically and record identical logs.
func TestSetLogDeterministic(t *testing.T) {
	for seed := int64(0); seed < 20; seed++ {
		plan := NewPlan(seed, PlanConfig{Prob: 0.5})
		run := func() []Fault {
			s := New(plan)
			for i := 0; i < 30; i++ {
				for _, pt := range Points() {
					s.Take(pt)
				}
			}
			return s.Log()
		}
		if a, b := run(), run(); !reflect.DeepEqual(a, b) {
			t.Fatalf("seed %d: logs differ:\n%v\n%v", seed, a, b)
		}
	}
}
