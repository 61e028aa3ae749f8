// Package adversary simulates an active attacker racing the live
// patcher, closing the loop on chaos invariant 5: the attacker must
// never win silently. Each attack runs against a real provisioned
// System with introspection enabled, and its schedule is derived
// entirely from one uint64 seed, so any campaign failure reproduces
// from the seed alone.
//
// Three attacker archetypes map onto the three verdict kinds the
// introspection detector can raise:
//
//   - Reinfect writes junk back into freshly patched kernel text in
//     the middle of a rollout — at the k-th patch SMI, while earlier
//     patches have already landed. The write happens outside any SMI
//     window, so the event channel classifies it as tampering even
//     though the pipeline's own rebaseline absorbs it into the
//     frame-diff snapshot (introspect.TamperDetected).
//   - Replay re-triggers the package SMI mid-rollout over the sealed
//     directory still resident in write-only mem_W. The SMM handler
//     rejects the stale one-shot session key, and the detector flags
//     the unannounced package SMI (introspect.StalePatchReplay).
//   - Groom parks a vCPU inside the patch target so the conservative
//     activeness check refuses the patch over and over, starving the
//     rollout (introspect.ActivenessGroomed after the refusal
//     threshold), then releases so the patch eventually lands.
//
// The attack schedule rides the introspection channel's synchronous
// tap: the attacker strikes at the k-th patch-SMI event, which is the
// same instruction-level point on every run with the same seed.
package adversary

import (
	"fmt"

	"kshot/internal/introspect"
)

// Kind selects the attacker archetype.
type Kind uint8

const (
	// Reinfect re-writes patched kernel text mid-rollout.
	Reinfect Kind = iota + 1
	// Replay re-triggers a package SMI over a stale staged directory.
	Replay
	// Groom parks a vCPU in the patch target to starve the
	// activeness check.
	Groom
)

// String names the attacker for logs and campaign output.
func (k Kind) String() string {
	switch k {
	case Reinfect:
		return "reinfect"
	case Replay:
		return "replay"
	case Groom:
		return "groom"
	default:
		return fmt.Sprintf("Kind(%d)", uint8(k))
	}
}

// Plan is a fully deterministic attack schedule. Every field is
// derived from Seed by NewPlan; nothing else feeds the schedule, so a
// failing seed reproduces the exact run.
type Plan struct {
	// Seed is the campaign seed this plan was derived from.
	Seed uint64

	// Kind is the attacker archetype.
	Kind Kind

	// StrikeSMI is the 1-based patch-SMI ordinal the attacker acts
	// on: the SMI whose enter event triggers the tamper write
	// (Reinfect, clamped so at least one patch has landed), or the
	// SMI whose still-resident directory is replayed (Replay).
	// Groom ignores it (the refusal threshold paces that attack).
	StrikeSMI int

	// Strikes is how many times the attacker acts: text writes per
	// strike event for Reinfect, replay attempts for Replay.
	Strikes int
}

// splitmix64 is the standard SplitMix64 mixer — tiny, seedable, and
// stable across platforms, which is all a reproducible schedule needs.
func splitmix64(s *uint64) uint64 {
	*s += 0x9E3779B97F4A7C15
	z := *s
	z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9
	z = (z ^ (z >> 27)) * 0x94D049BB133111EB
	return z ^ (z >> 31)
}

// NewPlan derives an attack plan from a seed.
func NewPlan(seed uint64) Plan {
	s := seed
	return Plan{
		Seed:      seed,
		Kind:      Kind(1 + splitmix64(&s)%3),
		StrikeSMI: int(1 + splitmix64(&s)%3),
		Strikes:   int(1 + splitmix64(&s)%2),
	}
}

// Outcome is the result of one attack run: what the attacker managed
// to do, what the defense reported, and whether the system came back
// clean.
type Outcome struct {
	Plan Plan

	// Struck counts attacker actions that actually executed (tamper
	// writes, replay SMIs). Zero means the attack never fired, so no
	// detection is owed.
	Struck int

	// Starved reports whether a Groom attacker held the patch off for
	// at least the detector's refusal threshold.
	Starved bool

	// Applied lists the CVEs that ended up applied despite the
	// attack, in apply order.
	Applied []string

	// Verdicts is every verdict the detector raised during the run,
	// harvested before cleanup so cleanup's own writes cannot mask a
	// missing detection.
	Verdicts []introspect.Verdict

	// TextClean reports whether kernel.text frame-diffed clean
	// against the pristine pre-attack snapshot after rollback.
	TextClean bool

	// ApplyErr is a rollout error other than the per-member failures
	// the pipeline absorbs; CleanupErr is a rollback/restore failure.
	ApplyErr   error
	CleanupErr error
}

// Detected reports whether any harvested verdict has the given kind.
func (o *Outcome) Detected(k introspect.VerdictKind) bool {
	for _, v := range o.Verdicts {
		if v.Kind == k {
			return true
		}
	}
	return false
}

// SilentWin reports the one state chaos invariant 5 forbids: the
// attacker acted and the defense said nothing. Each archetype owes a
// specific verdict kind; an attack that never fired owes nothing.
func (o *Outcome) SilentWin() bool {
	switch o.Plan.Kind {
	case Reinfect:
		return o.Struck > 0 && !o.Detected(introspect.TamperDetected)
	case Replay:
		return o.Struck > 0 && !o.Detected(introspect.StalePatchReplay)
	case Groom:
		return o.Starved && !o.Detected(introspect.ActivenessGroomed)
	default:
		return false
	}
}
