package main

import (
	"bytes"
	"compress/gzip"
	"encoding/binary"
	"runtime/pprof"
	"testing"
	"time"

	"kshot/internal/kcrypto"
)

// TestCPUByPackageLiveProfile profiles a CPU-bound loop in one known
// package: kcrypto hashing, whose work runs in crypto/sha256 frames
// that must count toward their kcrypto caller.
func TestCPUByPackageLiveProfile(t *testing.T) {
	var buf bytes.Buffer
	if err := pprof.StartCPUProfile(&buf); err != nil {
		t.Fatalf("start profile: %v", err)
	}
	data := make([]byte, 64<<10)
	for end := time.Now().Add(500 * time.Millisecond); time.Now().Before(end); {
		if _, err := kcrypto.Sum(kcrypto.HashSHA256, data); err != nil {
			pprof.StopCPUProfile()
			t.Fatal(err)
		}
	}
	pprof.StopCPUProfile()

	p, err := parseProfile(buf.Bytes())
	if err != nil {
		t.Fatal(err)
	}
	byPkg, total, err := cpuByPackage(p)
	if err != nil {
		t.Fatal(err)
	}
	attributed := total - byPkg[runtimeLayer]
	if attributed == 0 {
		t.Fatalf("no samples attributed to a kshot package: %v", byPkg)
	}
	if 2*byPkg["kcrypto"] <= attributed {
		t.Fatalf("kcrypto has %d of %d kshot-attributed ns; want the majority (all: %v)", byPkg["kcrypto"], attributed, byPkg)
	}
}

// pbWriter encodes the handful of protobuf constructs the synthetic
// profile below needs.
type pbWriter struct{ b []byte }

func (w *pbWriter) varint(field int, v uint64) *pbWriter {
	w.b = binary.AppendUvarint(w.b, uint64(field)<<3|wireVarint)
	w.b = binary.AppendUvarint(w.b, v)
	return w
}

func (w *pbWriter) bytes(field int, data []byte) *pbWriter {
	w.b = binary.AppendUvarint(w.b, uint64(field)<<3|wireBytes)
	w.b = binary.AppendUvarint(w.b, uint64(len(data)))
	w.b = append(w.b, data...)
	return w
}

func (w *pbWriter) packed(field int, vs ...uint64) *pbWriter {
	var inner []byte
	for _, v := range vs {
		inner = binary.AppendUvarint(inner, v)
	}
	return w.bytes(field, inner)
}

// TestCPUByPackageRules checks the attribution rules on a hand-built
// profile mixing packed and unpacked repeated fields.
func TestCPUByPackageRules(t *testing.T) {
	strs := []string{"", "samples", "count", "cpu", "nanoseconds",
		"kshot/internal/mem.(*Physical).Read", // 5
		"crypto/sha256.block",                 // 6
		"kshot/internal/kcrypto.Sum",          // 7
		"kshot/internal/core.(*System).Apply", // 8
		"runtime.gcBgMarkWorker",              // 9
		"kshot/benchmark.main",                // 10
	}
	var prof pbWriter
	prof.bytes(fProfileSampleType, (&pbWriter{}).varint(fValueTypeType, 1).varint(fValueTypeUnit, 2).b)
	prof.bytes(fProfileSampleType, (&pbWriter{}).varint(fValueTypeType, 3).varint(fValueTypeUnit, 4).b)
	// Functions 1..6 name strings 5..10.
	for id := uint64(1); id <= 6; id++ {
		prof.bytes(fProfileFunction, (&pbWriter{}).varint(fFunctionID, id).varint(fFunctionName, id+4).b)
	}
	line := func(fn uint64) []byte { return (&pbWriter{}).varint(fLineFunction, fn).b }
	// Location 1: crypto/sha256 inlined into kcrypto.Sum.
	prof.bytes(fProfileLocation, (&pbWriter{}).varint(fLocationID, 1).bytes(fLocationLine, line(2)).bytes(fLocationLine, line(3)).b)
	// Location 2: core; location 3: mem; location 4: runtime; location 5: the benchmark.
	prof.bytes(fProfileLocation, (&pbWriter{}).varint(fLocationID, 2).bytes(fLocationLine, line(4)).b)
	prof.bytes(fProfileLocation, (&pbWriter{}).varint(fLocationID, 3).bytes(fLocationLine, line(1)).b)
	prof.bytes(fProfileLocation, (&pbWriter{}).varint(fLocationID, 4).bytes(fLocationLine, line(5)).b)
	prof.bytes(fProfileLocation, (&pbWriter{}).varint(fLocationID, 5).bytes(fLocationLine, line(6)).b)
	// Stdlib inlined under kcrypto, called from core: kcrypto (packed).
	prof.bytes(fProfileSample, (&pbWriter{}).packed(fSampleLocation, 1, 2, 5).packed(fSampleValue, 1, 10).b)
	// mem called from core: mem (unpacked).
	prof.bytes(fProfileSample, (&pbWriter{}).varint(fSampleLocation, 3).varint(fSampleLocation, 2).
		varint(fSampleValue, 1).varint(fSampleValue, 20).b)
	// No kshot/internal frame at all: runtime.
	prof.bytes(fProfileSample, (&pbWriter{}).packed(fSampleLocation, 4).packed(fSampleValue, 1, 40).b)
	prof.bytes(fProfileSample, (&pbWriter{}).packed(fSampleLocation, 5).packed(fSampleValue, 1, 80).b)
	for _, s := range strs {
		prof.bytes(fProfileString, []byte(s))
	}

	var gz bytes.Buffer
	zw := gzip.NewWriter(&gz)
	if _, err := zw.Write(prof.b); err != nil {
		t.Fatal(err)
	}
	if err := zw.Close(); err != nil {
		t.Fatal(err)
	}
	p, err := parseProfile(gz.Bytes())
	if err != nil {
		t.Fatal(err)
	}
	byPkg, total, err := cpuByPackage(p)
	if err != nil {
		t.Fatal(err)
	}
	want := map[string]int64{"kcrypto": 10, "mem": 20, runtimeLayer: 120}
	if total != 150 || len(byPkg) != len(want) {
		t.Fatalf("total %d, by package %v; want 150, %v", total, byPkg, want)
	}
	for k, v := range want {
		if byPkg[k] != v {
			t.Errorf("%s: %d ns, want %d", k, byPkg[k], v)
		}
	}
}

func TestParseProfileRejectsTruncated(t *testing.T) {
	var gz bytes.Buffer
	zw := gzip.NewWriter(&gz)
	zw.Write([]byte{byte(fProfileString<<3 | wireBytes), 10, 'a'})
	zw.Close()
	if _, err := parseProfile(gz.Bytes()); err == nil {
		t.Fatal("truncated string field parsed without error")
	}
}

func TestInternalPackage(t *testing.T) {
	for fn, want := range map[string]string{
		"kshot/internal/mem.(*Physical).Read":           "mem",
		"kshot/internal/sgxprep.prepare.func1":          "sgxprep",
		"kshot/internal/orchestrator.(*State).target":   "orchestrator",
		"kshot/benchmark.main":                          "",
		"kshot.New":                                     "",
		"runtime.mallocgc":                              "",
		"crypto/internal/fips140/sha256.blockSHANI":     "",
		"kshot/internal/patchserver.(*Server).serve-fm": "patchserver",
	} {
		if got := internalPackage(fn); got != want {
			t.Errorf("internalPackage(%q) = %q, want %q", fn, got, want)
		}
	}
}
