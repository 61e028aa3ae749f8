package cvebench

import (
	"reflect"
	"testing"

	"kshot/internal/kernel"
	"kshot/internal/machine"
	"kshot/internal/mem"
	"kshot/internal/patch"
)

func bootTree(t *testing.T, st *kernel.SourceTree) *kernel.Kernel {
	t.Helper()
	img, _, err := st.Build()
	if err != nil {
		t.Fatal(err)
	}
	m, err := machine.New(machine.Config{NumVCPUs: 1})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(m.Stop)
	k, err := kernel.Boot(m, img, st.Config(), mem.ReservedLayout{})
	if err != nil {
		t.Fatal(err)
	}
	return k
}

func TestRegistryShape(t *testing.T) {
	all := All()
	if len(all) != 30 {
		t.Fatalf("Table I has %d entries, want 30", len(all))
	}
	seen := map[string]bool{}
	for _, e := range all {
		if seen[e.CVE] {
			t.Errorf("duplicate CVE %s", e.CVE)
		}
		seen[e.CVE] = true
		if len(e.Functions) == 0 || e.SizeLoC <= 0 || len(e.Types) == 0 {
			t.Errorf("%s: incomplete entry", e.CVE)
		}
		if e.FigureOnly {
			t.Errorf("%s: figure-only entry in Table I list", e.CVE)
		}
	}
	six := FigureSix()
	if len(six) != 6 {
		t.Fatalf("FigureSix returned %d", len(six))
	}
	for _, e := range six {
		if e == nil {
			t.Fatal("nil figure entry")
		}
	}
	if _, ok := Get("CVE-2016-5195"); !ok {
		t.Error("Get failed for known CVE")
	}
	if _, ok := Get("CVE-0000-0000"); ok {
		t.Error("Get succeeded for unknown CVE")
	}
}

// TestAllEntriesVulnThenFixed is the benchmark's ground truth: for
// every entry (Table I + figure extras), the exploit must succeed on a
// kernel built with the vulnerable source and fail on one built with
// the fixed source — on both supported kernel versions.
func TestAllEntriesVulnThenFixed(t *testing.T) {
	for _, s := range table {
		e := registry[s.cve]
		t.Run(e.CVE, func(t *testing.T) {
			for _, version := range []string{"3.14", "4.4"} {
				vulnTree, err := VulnerableTree(version, e)
				if err != nil {
					t.Fatal(err)
				}
				k := bootTree(t, vulnTree)
				res, err := e.Exploit(k, 0)
				if err != nil {
					t.Fatalf("%s exploit on vulnerable kernel: %v", version, err)
				}
				if !res.Vulnerable {
					t.Errorf("%s: exploit failed on vulnerable kernel (%s)", version, res.Detail)
				}

				fixedTree := vulnTree.Clone()
				if err := fixedTree.Apply(e.SourcePatch()); err != nil {
					t.Fatal(err)
				}
				k2 := bootTree(t, fixedTree)
				res, err = e.Exploit(k2, 0)
				if err != nil {
					t.Fatalf("%s exploit on fixed kernel: %v", version, err)
				}
				if res.Vulnerable {
					t.Errorf("%s: exploit still works on fixed kernel (%s)", version, res.Detail)
				}
			}
		})
	}
}

// TestPatchTypesMatchTable verifies the pipeline's classification of
// each built binary patch covers the entry's Table I types.
func TestPatchTypesMatchTable(t *testing.T) {
	for _, s := range table {
		e := registry[s.cve]
		t.Run(e.CVE, func(t *testing.T) {
			pre, err := VulnerableTree("4.4", e)
			if err != nil {
				t.Fatal(err)
			}
			preImg, preUnit, err := pre.Build()
			if err != nil {
				t.Fatal(err)
			}
			post := pre.Clone()
			if err := post.Apply(e.SourcePatch()); err != nil {
				t.Fatal(err)
			}
			postImg, postUnit, err := post.Build()
			if err != nil {
				t.Fatal(err)
			}
			bp, err := patch.Build(e.CVE, "4.4",
				patch.ImagePair{Img: preImg, Unit: preUnit},
				patch.ImagePair{Img: postImg, Unit: postUnit})
			if err != nil {
				t.Fatal(err)
			}
			if got := bp.Types(); !reflect.DeepEqual(got, e.Types) {
				t.Errorf("types = %v, want %v (funcs %v)", got, e.Types, bp.FuncNames())
			}
			if bp.PayloadBytes() == 0 {
				t.Error("empty payload")
			}
		})
	}
}

// TestPayloadSizesTrackTableSizes checks the generated patch sizes
// scale with Table I's LoC column, so the per-CVE figures show the
// paper's size spread.
func TestPayloadSizesTrackTableSizes(t *testing.T) {
	big, _ := Get("CVE-2016-7914")   // 330 LoC
	small, _ := Get("CVE-2014-4157") // 5 LoC
	sizeOf := func(e *Entry) int {
		pre, err := VulnerableTree("4.4", e)
		if err != nil {
			t.Fatal(err)
		}
		preImg, preUnit, err := pre.Build()
		if err != nil {
			t.Fatal(err)
		}
		post := pre.Clone()
		if err := post.Apply(e.SourcePatch()); err != nil {
			t.Fatal(err)
		}
		postImg, postUnit, err := post.Build()
		if err != nil {
			t.Fatal(err)
		}
		bp, err := patch.Build(e.CVE, "4.4",
			patch.ImagePair{Img: preImg, Unit: preUnit},
			patch.ImagePair{Img: postImg, Unit: postUnit})
		if err != nil {
			t.Fatal(err)
		}
		return bp.PayloadBytes()
	}
	b, s := sizeOf(big), sizeOf(small)
	if b <= 4*s {
		t.Errorf("330-LoC patch (%dB) not much larger than 5-LoC patch (%dB)", b, s)
	}
}

func TestSourcePatchTouchesOnlyEntryFile(t *testing.T) {
	e, _ := Get("CVE-2014-0196")
	sp := e.SourcePatch()
	if len(sp.Files) != 1 {
		t.Fatalf("patch touches %d files", len(sp.Files))
	}
	if _, ok := sp.Files[e.File]; !ok {
		t.Error("patch does not touch the entry's file")
	}
	if sp.ID != e.CVE {
		t.Error("patch ID mismatch")
	}
}

func TestTypesString(t *testing.T) {
	e, _ := Get("CVE-2014-3687")
	if e.TypesString() != "1,2" {
		t.Errorf("TypesString = %q", e.TypesString())
	}
}

func TestTreeProviderIncludesAllEntries(t *testing.T) {
	a, _ := Get("CVE-2014-0196")
	b, _ := Get("CVE-2016-7916")
	provider := TreeProviderFor(a, b)
	st, err := provider("3.14")
	if err != nil {
		t.Fatal(err)
	}
	for _, e := range []*Entry{a, b} {
		if src, ok := st.File(e.File); !ok || src != e.Vuln {
			t.Errorf("provider tree missing vulnerable %s", e.File)
		}
	}
	if _, err := provider("9.9"); err == nil {
		t.Error("bad version accepted")
	}
}
