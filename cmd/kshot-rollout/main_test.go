package main

import (
	"errors"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"kshot"
)

func TestHealthyRollout(t *testing.T) {
	if testing.Short() {
		t.Skip("full rollout skipped in -short mode")
	}
	var out strings.Builder
	err := run([]string{
		"-targets", "4", "-domains", "2", "-cves", "CVE-2016-0728",
		"-first-frac", "0.25",
	}, &out)
	if err != nil {
		t.Fatal(err)
	}
	s := out.String()
	if !strings.Contains(s, "plan: ") || !strings.Contains(s, "canary 1") {
		t.Errorf("plan line missing:\n%s", s)
	}
	if !strings.Contains(s, "4 patched, 0 failed, 0 rolled back") {
		t.Errorf("accounting line wrong:\n%s", s)
	}
	if strings.Contains(s, "HALTED") {
		t.Errorf("healthy rollout reported halted:\n%s", s)
	}
}

func TestChaosRolloutWithState(t *testing.T) {
	if testing.Short() {
		t.Skip("full rollout skipped in -short mode")
	}
	state := filepath.Join(t.TempDir(), "roll.state")
	var out strings.Builder
	// Chaos that refuses every SMI on every target: the canary rolls
	// back and the rollout halts with wave-granular state persisted.
	err := run([]string{
		"-targets", "4", "-domains", "2", "-cves", "CVE-2016-0728",
		"-first-frac", "0.25", "-chaos-frac", "1", "-state", state,
	}, &out)
	if err != nil {
		t.Fatal(err)
	}
	s := out.String()
	if !strings.Contains(s, "ROLLED BACK") || !strings.Contains(s, "HALTED") {
		t.Errorf("canary chaos should roll back and halt:\n%s", s)
	}
	if _, err := os.Stat(state); err != nil {
		t.Errorf("state file not persisted: %v", err)
	}
}

func TestUnknownCVERejected(t *testing.T) {
	var out strings.Builder
	err := run([]string{"-cves", "CVE-0000-0000"}, &out)
	if err == nil || !strings.Contains(err.Error(), "unknown CVE") {
		t.Errorf("want unknown-CVE error, got %v", err)
	}
}

func TestBadFlagRejected(t *testing.T) {
	var out strings.Builder
	if err := run([]string{"-no-such-flag"}, &out); err == nil {
		t.Error("want flag parse error, got nil")
	}
}

func TestInvalidOptionSurfaced(t *testing.T) {
	var out strings.Builder
	err := run([]string{"-targets", "0"}, &out)
	if err == nil {
		t.Fatal("want option validation error, got nil")
	}
	if !strings.Contains(err.Error(), "kshot.NewRollout") {
		t.Errorf("error should carry the constructor name, got %v", err)
	}
	if !errors.Is(err, kshot.ErrInvalidOption) {
		t.Errorf("error should be ErrInvalidOption, got %v", err)
	}
}
