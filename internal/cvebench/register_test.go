package cvebench

import (
	"strings"
	"testing"
)

func genEntry(cve, file, vuln, fixed string) *Entry {
	return &Entry{CVE: cve, File: file, Vuln: vuln, Fixed: fixed,
		Functions: []string{"f"}, Summary: "test entry"}
}

func TestRegisterRejectsSameFileConflicts(t *testing.T) {
	m := map[string]*Entry{"TEST-CONF-A": genEntry("TEST-CONF-A", "cve/test_conf.asm", "; vuln\n", "; fixed\n")}

	// Same file, conflicting fixed content: the second patch would
	// silently clobber the first at the server's tree provider.
	err := checkConflicts(m, genEntry("TEST-CONF-B", "cve/test_conf.asm", "; vuln\n", "; other fix\n"))
	if err == nil {
		t.Fatal("conflicting Fixed content on the same File was accepted")
	}
	if !strings.Contains(err.Error(), "conflicting fixed content") || !strings.Contains(err.Error(), "TEST-CONF-A") {
		t.Fatalf("conflict error does not name the clash: %v", err)
	}

	// Same file, conflicting vulnerable content.
	err = checkConflicts(m, genEntry("TEST-CONF-C", "cve/test_conf.asm", "; other vuln\n", "; fixed\n"))
	if err == nil || !strings.Contains(err.Error(), "conflicting vulnerable content") {
		t.Fatalf("conflicting Vuln content not rejected: %v", err)
	}

	// Same file with identical content under a new ID is fine (two IDs
	// sharing one subsystem fix).
	if err := checkConflicts(m, genEntry("TEST-CONF-D", "cve/test_conf.asm", "; vuln\n", "; fixed\n")); err != nil {
		t.Fatalf("identical-content same-file entry rejected: %v", err)
	}
}

func TestRegisterRejectsDuplicateIDWithDifferentContent(t *testing.T) {
	m := map[string]*Entry{"TEST-DUP-1": genEntry("TEST-DUP-1", "cve/test_dup_1.asm", "; v\n", "; f\n")}
	if err := checkConflicts(m, genEntry("TEST-DUP-1", "cve/test_dup_1.asm", "; v\n", "; f\n")); err != nil {
		t.Fatalf("identical re-registration: %v", err)
	}
	err := checkConflicts(m, genEntry("TEST-DUP-1", "cve/test_dup_1b.asm", "; v2\n", "; f2\n"))
	if err == nil || !strings.Contains(err.Error(), "already registered") {
		t.Fatalf("duplicate ID with different content not rejected: %v", err)
	}
}

// TestRegisterAgainstTableEntry checks the conflict rules also protect
// the init-built Table I corpus.
func TestRegisterAgainstTableEntry(t *testing.T) {
	orig, ok := Get("CVE-2014-0196")
	if !ok {
		t.Fatal("Table I entry missing")
	}
	if err := checkConflicts(registry, genEntry("TEST-TBL", orig.File, orig.Vuln, "; different fix\n")); err == nil {
		t.Fatal("conflict with a Table I entry's file was accepted")
	}
}
