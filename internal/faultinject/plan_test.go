package faultinject

import (
	"fmt"
	"hash/fnv"
	"math/rand"
	"time"
)

// The seeded plan generator the chaos suite draws its fault schedules
// from: a pure function of (seed, config), so any failure it finds is
// replayable from its seed alone.

// PlanConfig tunes schedule generation. The zero value gets defaults
// suitable for the chaos suite.
type PlanConfig struct {
	// Points lists the points to arm; nil arms all of them.
	Points []Point
	// Prob is the per-call fire probability while the point still has
	// budget (default 0.3).
	Prob float64
	// MaxPerPoint bounds how many times one point fires (default 2),
	// so schedules model transient faults the system should absorb
	// rather than a permanently broken component.
	MaxPerPoint int
	// Horizon is how many call indices per point are considered
	// (default 24).
	Horizon int
	// MaxDelay bounds injected delays (default 2ms).
	MaxDelay time.Duration
}

func (c PlanConfig) withDefaults() PlanConfig {
	if c.Points == nil {
		c.Points = Points()
	}
	if c.Prob <= 0 {
		c.Prob = 0.3
	}
	if c.MaxPerPoint <= 0 {
		c.MaxPerPoint = 2
	}
	if c.Horizon <= 0 {
		c.Horizon = 24
	}
	if c.MaxDelay <= 0 {
		c.MaxDelay = 2 * time.Millisecond
	}
	return c
}

// NewPlan derives a schedule for every armed point from seed. Each
// point gets its own PRNG stream seeded by hash(seed, point), so one
// point's schedule never depends on which other points are armed.
func NewPlan(seed int64, cfg PlanConfig) *Plan {
	cfg = cfg.withDefaults()
	p := &Plan{schedule: make(map[Point][]Fault, len(cfg.Points))}
	for _, pt := range cfg.Points {
		rng := rand.New(rand.NewSource(pointSeed(seed, pt)))
		var faults []Fault
		for call := 0; call < cfg.Horizon && len(faults) < cfg.MaxPerPoint; call++ {
			if rng.Float64() >= cfg.Prob {
				continue
			}
			faults = append(faults, Fault{
				Point: pt,
				Call:  call,
				Bit:   uint(rng.Intn(1 << 16)),
				Frac:  rng.Float64() * 0.9,
				Delay: time.Duration(1 + rng.Int63n(int64(cfg.MaxDelay))),
			})
		}
		if len(faults) > 0 {
			p.schedule[pt] = faults
		}
	}
	return p
}

// Scheduled returns the plan's fault list for a point (in call order).
func (p *Plan) Scheduled(pt Point) []Fault {
	return append([]Fault(nil), p.schedule[pt]...)
}

// pointSeed mixes the plan seed with the point name so every point
// draws from an independent deterministic stream.
func pointSeed(seed int64, pt Point) int64 {
	h := fnv.New64a()
	fmt.Fprintf(h, "%d\x00%s", seed, pt)
	return int64(h.Sum64())
}

// Faults returns every scheduled fault, ordered by point then call.
func (p *Plan) Faults() []Fault {
	var out []Fault
	for _, pt := range Points() {
		out = append(out, p.schedule[pt]...)
	}
	return out
}
