package kshot

import (
	"context"
	"errors"
	"testing"
	"time"
)

// TestOptionValidationTables drives every public constructor through
// zero-value, conflicting, and boundary options: each rejection must
// be eager (no hardware simulated, no sockets opened), match
// ErrInvalidOption, and unwrap to a *OptionError naming the
// constructor.
func TestOptionValidationTables(t *testing.T) {
	dummyTargets := []RolloutTarget{{ID: "a", Domain: "r0"}, {ID: "b", Domain: "r1"}}
	dummyProv := func(ctx context.Context, tg RolloutTarget) (Patcher, error) {
		return nil, errors.New("never provisioned")
	}

	cases := []struct {
		name        string
		construct   func() error
		constructor string
	}{
		{"New/bad version", func() error {
			_, err := New(WithVersion("5.10"))
			return err
		}, "kshot.New"},
		{"New/conflicting versions", func() error {
			_, err := New(WithVersion("4.4"), WithVersion("3.14"))
			return err
		}, "kshot.New"},
		{"New/zero vcpus", func() error {
			_, err := New(WithVCPUs(0))
			return err
		}, "kshot.New"},
		{"New/negative vcpus", func() error {
			_, err := New(WithVCPUs(-4))
			return err
		}, "kshot.New"},
		{"New/empty extra files", func() error {
			_, err := New(WithExtraFiles(nil))
			return err
		}, "kshot.New"},
		{"New/empty server addr", func() error {
			_, err := New(WithServerAddr(""))
			return err
		}, "kshot.New"},
		{"New/conflicting server addrs", func() error {
			_, err := New(WithServerAddr("a:1"), WithServerAddr("b:2"))
			return err
		}, "kshot.New"},
		{"New/unknown hash", func() error {
			_, err := New(WithHashAlg(HashAlg(99)))
			return err
		}, "kshot.New"},
		{"New/nil rand", func() error {
			_, err := New(WithRand(nil))
			return err
		}, "kshot.New"},
		{"New/nil option", func() error {
			_, err := New(nil)
			return err
		}, "kshot.New"},
		// A custom Option skips every With* body; Options.Validate
		// still rejects what it sets.
		{"New/custom option bad version", func() error {
			_, err := New(func(o *Options) error { o.Version = "5.10"; return nil })
			return err
		}, "kshot.New"},
		{"New/custom option unknown hash", func() error {
			_, err := New(func(o *Options) error { o.HashAlg = 99; return nil })
			return err
		}, "kshot.New"},
		{"New/custom option empty file name", func() error {
			_, err := New(func(o *Options) error { o.ExtraFiles = map[string]string{"": "x"}; return nil })
			return err
		}, "kshot.New"},

		{"NewPatchServer/no tree provider", func() error {
			_, err := NewPatchServer()
			return err
		}, "patchserver.New"},
		{"NewPatchServer/empty listen addr", func() error {
			_, err := NewPatchServer(WithListenAddr(""), WithTreeProvider(TreeProviderFor()))
			return err
		}, "patchserver.New"},
		{"NewPatchServer/conflicting listen addrs", func() error {
			_, err := NewPatchServer(WithTreeProvider(TreeProviderFor()),
				WithListenAddr("127.0.0.1:1"), WithListenAddr("127.0.0.1:2"))
			return err
		}, "patchserver.New"},
		{"NewPatchServer/nil tree provider", func() error {
			_, err := NewPatchServer(WithTreeProvider(nil))
			return err
		}, "patchserver.New"},
		{"NewPatchServer/tree provider twice", func() error {
			_, err := NewPatchServer(WithTreeProvider(TreeProviderFor()), WithTreeProvider(TreeProviderFor()))
			return err
		}, "patchserver.New"},
		{"NewPatchServer/negative max conns", func() error {
			_, err := NewPatchServer(WithTreeProvider(TreeProviderFor()), WithServerMaxConns(-1))
			return err
		}, "patchserver.New"},
		{"NewPatchServer/negative accept wait", func() error {
			_, err := NewPatchServer(WithTreeProvider(TreeProviderFor()), WithServerAcceptWait(-time.Second))
			return err
		}, "patchserver.New"},

		{"NewRollout/no fleet", func() error {
			_, err := NewRollout(WithCVEs("CVE-2016-0728"), WithProvisioner(dummyProv))
			return err
		}, "kshot.NewRollout"},
		{"NewRollout/duplicate targets", func() error {
			_, err := NewRollout(
				WithTargets([]RolloutTarget{{ID: "a"}, {ID: "a"}}),
				WithCVEs("CVE-2016-0728"), WithProvisioner(dummyProv))
			return err
		}, "kshot.NewRollout"},
		{"NewRollout/canary exceeds fleet", func() error {
			_, err := NewRollout(WithTargets(dummyTargets), WithCVEs("CVE-2016-0728"),
				WithProvisioner(dummyProv), WithCanarySize(3))
			return err
		}, "kshot.NewRollout"},
		{"NewRollout/fraction boundary", func() error {
			_, err := NewRollout(WithTargets(dummyTargets), WithCVEs("CVE-2016-0728"),
				WithProvisioner(dummyProv), WithFirstWaveFraction(1.01))
			return err
		}, "kshot.NewRollout"},
		{"NewRollout/growth boundary", func() error {
			_, err := NewRollout(WithTargets(dummyTargets), WithCVEs("CVE-2016-0728"),
				WithProvisioner(dummyProv), WithGrowthFactor(1.0))
			return err
		}, "kshot.NewRollout"},
	}

	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			err := tc.construct()
			if err == nil {
				t.Fatal("constructor accepted invalid options")
			}
			if !errors.Is(err, ErrInvalidOption) {
				t.Fatalf("err = %v, want ErrInvalidOption", err)
			}
			var oe *OptionError
			if !errors.As(err, &oe) {
				t.Fatalf("err %v does not unwrap to *OptionError", err)
			}
			if oe.Constructor != tc.constructor {
				t.Fatalf("Constructor = %q, want %q", oe.Constructor, tc.constructor)
			}
			if oe.Option == "" || oe.Reason == "" {
				t.Fatalf("OptionError missing detail: %+v", oe)
			}
		})
	}
}

// TestOptionZeroValuesDefaulted: constructors given no optional knobs
// fall back to documented defaults rather than zero values.
func TestOptionZeroValuesDefaulted(t *testing.T) {
	srv, err := NewPatchServer(WithTreeProvider(TreeProviderFor()))
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()
	if srv.Addr() == "" {
		t.Error("default listen addr did not bind")
	}

	sys, err := New(WithServerAddr(srv.Addr()))
	if err != nil {
		t.Fatal(err)
	}
	defer sys.Close()
	if v := sys.Kernel.Config().Version; v != "4.4" {
		t.Errorf("default version = %q, want 4.4", v)
	}
}

// TestKernelConfigOptions: WithFtrace(false) and WithInlining(false)
// reach the booted kernel's build config, and leave the other switch on.
func TestKernelConfigOptions(t *testing.T) {
	cases := []struct {
		name                string
		opt                 Option
		wantFtrace, wantInl bool
	}{
		{"ftrace off", WithFtrace(false), false, true},
		{"inlining off", WithInlining(false), true, false},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			sys, err := New(tc.opt)
			if err != nil {
				t.Fatal(err)
			}
			defer sys.Close()
			cfg := sys.Kernel.Config()
			if cfg.Ftrace != tc.wantFtrace || cfg.Inline != tc.wantInl {
				t.Fatalf("kernel config ftrace=%v inline=%v, want ftrace=%v inline=%v",
					cfg.Ftrace, cfg.Inline, tc.wantFtrace, tc.wantInl)
			}
		})
	}
}

// TestErrorTaxonomyWalk exercises the documented error chain of each
// public entry point: every failure class is reachable and branchable
// with errors.Is / errors.As, no message matching required.
func TestErrorTaxonomyWalk(t *testing.T) {
	t.Run("apply fetch failure", func(t *testing.T) {
		entry, _ := LookupCVE("CVE-2016-0728")
		srv, err := NewPatchServer(WithTreeProvider(TreeProviderFor(entry)))
		if err != nil {
			t.Fatal(err)
		}
		srv.RegisterPatch(entry.SourcePatch())
		sys, err := New(
			WithExtraFiles(map[string]string{entry.File: entry.Vuln}),
			WithServerAddr(srv.Addr()),
		)
		if err != nil {
			t.Fatal(err)
		}
		defer sys.Close()
		srv.Close() // kill the server: the fetch must fail typed

		_, err = sys.Apply(context.Background(), entry.CVE)
		if !errors.Is(err, ErrFetch) {
			t.Fatalf("apply against dead server: %v, want ErrFetch", err)
		}
	})

	t.Run("rollout canary halt", func(t *testing.T) {
		roll, err := NewRollout(
			WithTargets([]RolloutTarget{{ID: "a", Domain: "r0"}, {ID: "b", Domain: "r1"}}),
			WithCVEs("CVE-2016-0728"),
			WithProvisioner(func(ctx context.Context, tg RolloutTarget) (Patcher, error) {
				return nil, errors.New("no capacity")
			}),
		)
		if err != nil {
			t.Fatal(err)
		}
		_, err = roll.Run(context.Background())
		if !errors.Is(err, ErrRolloutHalted) {
			t.Fatalf("err = %v, want ErrRolloutHalted", err)
		}
		if !errors.Is(err, ErrWaveRolledBack) {
			t.Fatalf("err = %v, should also match ErrWaveRolledBack", err)
		}
		var he *HaltError
		if !errors.As(err, &he) || he.Wave != 0 {
			t.Fatalf("err %v should unwrap to *HaltError at wave 0", err)
		}
		var we *WaveError
		if !errors.As(err, &we) || len(we.Unhealthy) == 0 {
			t.Fatalf("err %v should unwrap to *WaveError with members", err)
		}
	})

	t.Run("rollout state mismatch", func(t *testing.T) {
		store := &RolloutMemStore{}
		st := &RolloutState{Seed: 1, CVEs: []string{"CVE-2016-0728"},
			Targets: []TargetState{{ID: "a", Domain: "r0"}}}
		if err := store.Save(st); err != nil {
			t.Fatal(err)
		}
		_, err := NewRollout(
			WithTargets([]RolloutTarget{{ID: "a", Domain: "r0"}}),
			WithCVEs("CVE-2016-0728"),
			WithProvisioner(func(ctx context.Context, tg RolloutTarget) (Patcher, error) {
				return nil, errors.New("unused")
			}),
			WithSeed(2),
			WithStateStore(store),
		)
		if !errors.Is(err, ErrStateMismatch) {
			t.Fatalf("err = %v, want ErrStateMismatch", err)
		}
	})

	t.Run("applyall invalid tuning", func(t *testing.T) {
		entry, _ := LookupCVE("CVE-2016-0728")
		srv, err := NewPatchServer(WithTreeProvider(TreeProviderFor(entry)))
		if err != nil {
			t.Fatal(err)
		}
		defer srv.Close()
		sys, err := New(
			WithExtraFiles(map[string]string{entry.File: entry.Vuln}),
			WithServerAddr(srv.Addr()),
		)
		if err != nil {
			t.Fatal(err)
		}
		defer sys.Close()
		_, err = sys.ApplyAll(context.Background(), []string{entry.CVE}, WithBatchSize(0))
		if !errors.Is(err, ErrInvalidOption) {
			t.Fatalf("ApplyAll(WithBatchSize(0)) err = %v, want ErrInvalidOption", err)
		}
	})
}
