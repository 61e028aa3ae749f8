package evalharness

import (
	"context"
	"fmt"
	"testing"

	"kshot/internal/core"
	"kshot/internal/corpusgen"
	"kshot/internal/cvebench"
	"kshot/internal/isa"
	"kshot/internal/kcrypto"
	"kshot/internal/patchserver"
)

// lockstepCycle drives a full exploit → apply → exploit → health →
// rollback → exploit cycle on a system whose single vCPU executes every
// dispatch unit under both engines (isa.DispatchLockstep): the block
// engine runs a unit, the oracle replays it on rewound memory, and any
// divergence in registers, flags, step counts, errors, or touched
// frames fails the call. The cycle exercises the decoder across the
// whole pipeline — pristine text, trampoline-patched text, and
// restored text after rollback — so a block-engine bug anywhere in the
// patch lifecycle surfaces as a DivergenceError out of the syscall that
// hit it. repro carries the failure-report suffix (the corpus shrink
// idiom for generated cases, empty for the CVE suite).
func lockstepCycle(t *testing.T, sys *core.System, e *cvebench.Entry, repro string) {
	t.Helper()
	probe := func(stage string, wantVulnerable bool) {
		r, err := e.Exploit(sys.Kernel, 0)
		if err != nil {
			t.Fatalf("%s: exploit probe: %v%s", stage, err, repro)
		}
		if r.Vulnerable != wantVulnerable {
			t.Fatalf("%s: exploit vulnerable=%v, want %v (%s)%s", stage, r.Vulnerable, wantVulnerable, r.Detail, repro)
		}
	}

	probe("pre-apply", true)
	if _, err := sys.Apply(context.Background(), e.CVE); err != nil {
		t.Fatalf("apply: %v%s", err, repro)
	}
	probe("post-apply", false)
	if v, err := sys.Kernel.Call(0, "sys_compute", 10, 4); err != nil || v != (10+4)*(10-4)+10 {
		t.Fatalf("health: sys_compute = %d, %v%s", v, err, repro)
	}
	if _, err := sys.Rollback(context.Background(), e.CVE); err != nil {
		t.Fatalf("rollback: %v%s", err, repro)
	}
	probe("post-rollback", true)

	// Non-vacuity: the lockstep runner's block engine must actually have
	// decoded and dispatched blocks, and the apply/rollback writes into
	// kernel text must have flushed its cache at least once each.
	stats, ok := sys.Machine.VCPU(0).EngineStats()
	if !ok {
		t.Fatalf("vCPU is not running a block engine%s", repro)
	}
	if stats.Decodes == 0 || stats.Flushes == 0 {
		t.Fatalf("lockstep engine stats %+v: expected decodes and flushes%s", stats, repro)
	}
}

// TestLockstepCVESuite runs the CVE benchmark suite end to end under
// differential lockstep dispatch. In -short mode it keeps a spread of
// six entries; the full 30-CVE pass runs in CI's long configuration.
func TestLockstepCVESuite(t *testing.T) {
	entries := cvebench.All()
	if testing.Short() {
		var subset []*cvebench.Entry
		for i := 0; i < len(entries); i += 5 {
			subset = append(subset, entries[i])
		}
		entries = subset
	}
	for _, e := range entries {
		t.Run(e.CVE, func(t *testing.T) {
			d, err := NewDeploymentDispatch("4.4", 1, kcrypto.HashSHA256, isa.DispatchLockstep, e)
			if err != nil {
				t.Fatal(err)
			}
			defer d.Close()
			lockstepCycle(t, d.System, e, "")
		})
	}
}

// TestLockstepCorpusArchetypes boots one generated case per corpusgen
// archetype under lockstep dispatch and runs the full patch cycle.
// Cases come off the deterministic seed stream, so every failure
// message names the exact seed that rebuilds the failing kernel:
// reproduce with kshot-corpus shrink -seed <seed>.
func TestLockstepCorpusArchetypes(t *testing.T) {
	const master = 0x10C4_57E9
	picked := make(map[string]*corpusgen.Case, len(corpusgen.Archetypes))
	for i := 0; len(picked) < len(corpusgen.Archetypes) && i < 256; i++ {
		c := corpusgen.GenCase(corpusgen.CaseSeed(master, i))
		if _, ok := picked[c.Archetype]; !ok {
			picked[c.Archetype] = c
		}
	}
	if len(picked) != len(corpusgen.Archetypes) {
		t.Fatalf("seed stream yielded %d/%d archetypes in 256 draws", len(picked), len(corpusgen.Archetypes))
	}

	for _, arch := range corpusgen.Archetypes {
		c := picked[arch]
		t.Run(arch, func(t *testing.T) {
			entry := c.Entry()
			srv, err := patchserver.New(patchserver.WithTreeProvider(cvebench.TreeProviderFor(entry)))
			if err != nil {
				t.Fatal(err)
			}
			defer srv.Close()
			srv.RegisterPatch(entry.SourcePatch())

			sys, err := core.NewSystem(core.Options{
				Version:       c.Version,
				NumVCPUs:      1,
				Dispatch:      isa.DispatchLockstep,
				ExtraFiles:    map[string]string{c.File: c.Vuln},
				ServerAddr:    srv.Addr(),
				HashAlg:       kcrypto.HashSHA256,
				DisableFtrace: !c.Ftrace,
				DisableInline: !c.Inline,
			})
			if err != nil {
				t.Fatalf("boot: %v (reproduce: kshot-corpus shrink -seed %#x)", err, c.Seed)
			}
			defer sys.Close()

			lockstepCycle(t, sys, entry, repro(c))
		})
	}
}

func repro(c *corpusgen.Case) string {
	return fmt.Sprintf(" (reproduce: kshot-corpus shrink -seed %#x)", c.Seed)
}
