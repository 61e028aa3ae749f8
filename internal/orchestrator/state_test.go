package orchestrator

import (
	"bytes"
	"encoding/binary"
	"encoding/gob"
	"errors"
	"hash/crc32"
	"os"
	"path/filepath"
	"testing"
	"time"
)

// fullState sets every State and TargetState field, with a negative
// seed and duration and a target that has nothing applied.
func fullState() *State {
	return &State{
		Seed: -7,
		CVEs: []string{"CVE-2016-0728", "CVE-2017-7184"},
		Waves: []Wave{
			{Index: 0, Targets: []string{"a"}},
			{Index: 1, Targets: []string{"b", "c"}},
		},
		Targets: []TargetState{
			{ID: "a", Domain: "r0", Wave: 0, Status: StatusPatched, Applied: []string{"CVE-2016-0728", "CVE-2017-7184"},
				Pause: 47876 * time.Nanosecond, Downtime: 23938 * time.Nanosecond},
			{ID: "b", Domain: "r1", Wave: 1, Status: StatusFailed, Failures: 3, Pause: -time.Microsecond,
				Err: "smm: SMI refused"},
			{ID: "c", Domain: "r0", Wave: 1, Status: StatusRolledBack, Applied: []string{"CVE-2016-0728"}},
		},
		NextWave: 2,
		Baseline: 23938 * time.Nanosecond,
		Halted:   true,
	}
}

// reseal replaces an encoded state's checksum with the one its other
// bytes carry, so a test can alter a field and still reach the decoder.
func reseal(b []byte) []byte {
	body := b[:len(b)-4]
	return binary.LittleEndian.AppendUint32(bytes.Clone(body), crc32.ChecksumIEEE(body))
}

// TestStateCorruptionRefused cuts an encoded state at every length and
// flips every one of its bits: each result fails with ErrCorruptState.
func TestStateCorruptionRefused(t *testing.T) {
	b := EncodeState(fullState())
	for n := range len(b) {
		if st, err := DecodeState(b[:n]); !errors.Is(err, ErrCorruptState) {
			t.Fatalf("%d-byte prefix: %+v, %v; want ErrCorruptState", n, st, err)
		}
	}
	for bit := range 8 * len(b) {
		c := bytes.Clone(b)
		c[bit/8] ^= 1 << (bit % 8)
		if st, err := DecodeState(c); !errors.Is(err, ErrCorruptState) {
			t.Fatalf("bit %d flipped: %+v, %v; want ErrCorruptState", bit, st, err)
		}
	}
}

// TestStateFieldsRefused gives the decoder records whose checksum
// matches but whose content EncodeState cannot have written.
func TestStateFieldsRefused(t *testing.T) {
	good := EncodeState(fullState())
	version := bytes.Clone(good)
	version[len(stateMagic)]++
	bad := fullState()
	bad.Targets[1].Status = StatusRolledBack + 1
	trailing := append(bytes.Clone(good[:len(good)-4]), 0, 0, 0, 0, 0)
	for name, b := range map[string][]byte{
		"unknown version":     reseal(version),
		"status out of range": EncodeState(bad),
		"trailing byte":       reseal(trailing),
		"truncated field":     reseal(append(bytes.Clone(good[:len(good)-6]), 0, 0, 0, 0)),
	} {
		if st, err := DecodeState(b); !errors.Is(err, ErrCorruptState) {
			t.Errorf("%s: %+v, %v; want ErrCorruptState", name, st, err)
		}
	}
}

// TestGobEraStateRefused loads a state file written in the earlier gob
// encoding: it fails as corrupt rather than being misread.
func TestGobEraStateRefused(t *testing.T) {
	var old bytes.Buffer
	if err := gob.NewEncoder(&old).Encode(fullState()); err != nil {
		t.Fatal(err)
	}
	path := filepath.Join(t.TempDir(), "rollout.state")
	if err := os.WriteFile(path, old.Bytes(), 0o644); err != nil {
		t.Fatal(err)
	}
	if st, err := NewFileStore(path).Load(); !errors.Is(err, ErrCorruptState) {
		t.Fatalf("gob-era state loaded as %+v, %v; want ErrCorruptState", st, err)
	}
}

// FuzzStateDecode requires DecodeState never to panic and every input
// it accepts to re-encode to the same bytes. The committed corpus seeds
// it with the state a seeded chaos rollout persists: 32 targets, one
// wave rolled back and one target failed.
func FuzzStateDecode(f *testing.F) {
	f.Add(EncodeState(fullState()))
	f.Fuzz(func(t *testing.T, data []byte) {
		st, err := DecodeState(data)
		if err != nil {
			if !errors.Is(err, ErrCorruptState) {
				t.Fatalf("error %v is not ErrCorruptState", err)
			}
			return
		}
		if again := EncodeState(st); !bytes.Equal(again, data) {
			t.Fatalf("accepted %x re-encodes to %x", data, again)
		}
	})
}
