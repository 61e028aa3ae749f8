package main

import (
	"encoding/json"
	"os"
	"path/filepath"
	"slices"
	"sort"
	"strings"
	"testing"
)

func TestTable4Only(t *testing.T) {
	var out strings.Builder
	if err := run([]string{"-table4"}, &out); err != nil {
		t.Fatal(err)
	}
	s := out.String()
	if !strings.Contains(s, "TABLE IV") || !strings.Contains(s, "KShot") {
		t.Errorf("table4 output incomplete:\n%s", s)
	}
	if strings.Contains(s, "TABLE II") {
		t.Error("unselected experiment ran")
	}
}

func TestTable1WritesOutputFile(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "out.txt")
	var out strings.Builder
	if err := run([]string{"-table1", "-o", path}, &out); err != nil {
		t.Fatal(err)
	}
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(string(data), "CVE-2014-0196") {
		t.Error("output file missing table content")
	}
	if out.String() == "" {
		t.Error("stdout empty despite -o")
	}
}

func TestFigureCSVMode(t *testing.T) {
	if testing.Short() {
		t.Skip("figure run skipped in -short mode")
	}
	var out strings.Builder
	if err := run([]string{"-fig5", "-csv"}, &out); err != nil {
		t.Fatal(err)
	}
	s := out.String()
	if !strings.Contains(s, "x,switch,key gen,decrypt,verify,apply") {
		t.Errorf("CSV header missing:\n%.300s", s)
	}
	if !strings.Contains(s, "CVE-2014-4608") {
		t.Error("CSV rows missing")
	}
}

func TestBadFlag(t *testing.T) {
	var out strings.Builder
	if err := run([]string{"-nonsense"}, &out); err == nil {
		t.Error("unknown flag accepted")
	}
	// -iters is gone: virtual time repeats exactly, so there is
	// nothing to average.
	if err := run([]string{"-iters", "1"}, &out); err == nil {
		t.Error("removed -iters flag accepted")
	}
}

// TestZeroCountsRejected: a count below 1 is an error from the
// experiment, never a divide-by-zero panic or a silent default.
func TestZeroCountsRejected(t *testing.T) {
	for _, args := range [][]string{
		{"-overhead", "-patches", "0"},
		{"-detect", "-detect-trials", "0"},
	} {
		t.Run(strings.Join(args, " "), func(t *testing.T) {
			var out strings.Builder
			if err := run(args, &out); err == nil {
				t.Errorf("run(%q) succeeded, want an error", args)
			}
		})
	}
}

// TestJSONDocumentKeys pins the shape of the -json document: stdout is
// exactly one JSON object whose keys are the selected data-bearing
// experiments and nothing else.
func TestJSONDocumentKeys(t *testing.T) {
	var out strings.Builder
	if err := run([]string{"-json", "-table2", "-table5"}, &out); err != nil {
		t.Fatal(err)
	}
	dec := json.NewDecoder(strings.NewReader(out.String()))
	var doc map[string]json.RawMessage
	if err := dec.Decode(&doc); err != nil {
		t.Fatalf("stdout is not a JSON object: %v\n%.300s", err, out.String())
	}
	if dec.More() {
		t.Errorf("trailing output after the JSON document:\n%.300s", out.String())
	}
	var got []string
	for k := range doc {
		got = append(got, k)
	}
	sort.Strings(got)
	if want := []string{"size_sweep", "table5"}; !slices.Equal(got, want) {
		t.Errorf("JSON keys %v, want exactly %v", got, want)
	}
}
