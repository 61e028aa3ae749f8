package orchestrator

import (
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"os"
	"sort"
	"sync"
	"time"

	"kshot/internal/wire"
)

// Status is a target's position in the rollout lifecycle.
type Status uint8

// Target lifecycle states.
const (
	// StatusPending — not yet reached by any wave.
	StatusPending Status = iota
	// StatusPatched — its wave passed the health gate; the CVE batch
	// is live on the target.
	StatusPatched
	// StatusFailed — the target's own run errored terminally (and it
	// had nothing applied to roll back).
	StatusFailed
	// StatusRolledBack — the target sat in a wave that failed the
	// health gate; whatever it had applied was rolled back.
	StatusRolledBack
)

// String returns the state's report name.
func (s Status) String() string {
	switch s {
	case StatusPending:
		return "pending"
	case StatusPatched:
		return "patched"
	case StatusFailed:
		return "failed"
	case StatusRolledBack:
		return "rolled-back"
	default:
		return "unknown"
	}
}

// Wave is one planned rollout stage: the targets patched together and
// health-gated as a unit.
type Wave struct {
	// Index is the wave's position: 0 is the canary.
	Index int

	// Targets holds the member target IDs, sorted.
	Targets []string
}

// TargetState is one target's recorded outcome — everything the
// health gate and a resumed coordinator need, and nothing wall-clock
// dependent, so replaying a seeded rollout reproduces it byte for
// byte.
type TargetState struct {
	ID     string
	Domain string

	// Wave is the index of the wave the plan assigned the target to.
	Wave int

	// Status is the target's lifecycle state.
	Status Status

	// Applied lists the CVEs that landed, in application order — the
	// exact sequence a wave rollback unwinds in reverse.
	Applied []string

	// Failures counts per-patch failures within the target's run.
	Failures int

	// Pause is the total virtual time the target's OS spent paused in
	// SMM for its ApplyAll.
	Pause time.Duration

	// Downtime is the mean per-patch SMM downtime read back from the
	// target's obs metrics (the patch.downtime_us histogram) — the
	// number the phase-time regression gate compares against the
	// canary baseline.
	Downtime time.Duration

	// Err records the terminal error of a failed run, if any.
	Err string
}

// State is the resumable rollout record. It is persisted through a
// Store after every target completion and wave boundary, so a
// coordinator crash resumes without re-patching completed targets.
// All slices are kept in sorted or plan order, so the same seed always
// persists identical bytes.
type State struct {
	// Seed is the determinism root the plan and chaos schedules
	// derive from.
	Seed int64

	// CVEs is the batch being rolled out, in request order.
	CVEs []string

	// Waves is the full plan, fixed at rollout construction.
	Waves []Wave

	// Targets holds per-target outcomes, sorted by ID.
	Targets []TargetState

	// NextWave is the first wave that has not completed its health
	// gate — where a resumed coordinator picks up.
	NextWave int

	// Baseline is the canary wave's mean per-patch downtime, the
	// reference the regression gate multiplies by the regress factor.
	Baseline time.Duration

	// Halted records that the rollout stopped early (canary rollback
	// or the fleet-wide failure threshold); a resume clears it and
	// continues with the remaining pending waves.
	Halted bool
}

// target returns the state record for id, or nil. Targets is sorted by
// ID — New sorts the fleet and checkResume holds a resumed state to
// that order — so the lookup is a binary search.
func (st *State) target(id string) *TargetState {
	i := sort.Search(len(st.Targets), func(i int) bool { return st.Targets[i].ID >= id })
	if i < len(st.Targets) && st.Targets[i].ID == id {
		return &st.Targets[i]
	}
	return nil
}

// clone deep-copies the state so callers can inspect it without
// racing the coordinator.
func (st *State) clone() *State {
	out := *st
	out.CVEs = append([]string(nil), st.CVEs...)
	out.Waves = make([]Wave, len(st.Waves))
	for i, w := range st.Waves {
		out.Waves[i] = Wave{Index: w.Index, Targets: append([]string(nil), w.Targets...)}
	}
	out.Targets = make([]TargetState, len(st.Targets))
	for i, t := range st.Targets {
		t.Applied = append([]string(nil), t.Applied...)
		out.Targets[i] = t
	}
	return &out
}

const (
	stateMagic   = "KSRS"
	stateVersion = 1
)

// ErrCorruptState reports persisted bytes that are not a state this
// build wrote: a foreign header or version, a checksum mismatch, a
// truncated or overlong record, or a field out of range.
var ErrCorruptState = errors.New("orchestrator: corrupt rollout state")

// EncodeState serializes a rollout state: a 4-byte magic and a version
// byte, the fields in declaration order (internal/wire), and a CRC-32
// (IEEE) of everything before it. Same state, same bytes — the chaos
// suite's replay witness compares these directly.
func EncodeState(st *State) []byte {
	b := append([]byte(stateMagic), stateVersion)
	b = wire.AppendVarint(b, st.Seed)
	b = appendStrings(b, st.CVEs)
	b = wire.AppendUvarint(b, uint64(len(st.Waves)))
	for _, w := range st.Waves {
		b = wire.AppendVarint(b, int64(w.Index))
		b = appendStrings(b, w.Targets)
	}
	b = wire.AppendUvarint(b, uint64(len(st.Targets)))
	for _, t := range st.Targets {
		b = wire.AppendString(b, t.ID)
		b = wire.AppendString(b, t.Domain)
		b = wire.AppendVarint(b, int64(t.Wave))
		b = wire.AppendUvarint(b, uint64(t.Status))
		b = appendStrings(b, t.Applied)
		b = wire.AppendVarint(b, int64(t.Failures))
		b = wire.AppendVarint(b, int64(t.Pause))
		b = wire.AppendVarint(b, int64(t.Downtime))
		b = wire.AppendString(b, t.Err)
	}
	b = wire.AppendVarint(b, int64(st.NextWave))
	b = wire.AppendVarint(b, int64(st.Baseline))
	b = wire.AppendBool(b, st.Halted)
	return binary.LittleEndian.AppendUint32(b, crc32.ChecksumIEEE(b))
}

// DecodeState deserializes a persisted rollout state. Anything
// EncodeState cannot have written fails with ErrCorruptState.
func DecodeState(b []byte) (*State, error) {
	head := len(stateMagic) + 1
	switch {
	case len(b) < head+4 || string(b[:len(stateMagic)]) != stateMagic:
		return nil, fmt.Errorf("%w: no state header", ErrCorruptState)
	case b[len(stateMagic)] != stateVersion:
		return nil, fmt.Errorf("%w: version %d, want %d", ErrCorruptState, b[len(stateMagic)], stateVersion)
	}
	body := b[:len(b)-4]
	if crc32.ChecksumIEEE(body) != binary.LittleEndian.Uint32(b[len(body):]) {
		return nil, fmt.Errorf("%w: checksum mismatch", ErrCorruptState)
	}
	d := wire.NewDecoder(body[head:])
	st := &State{Seed: d.Varint(), CVEs: decodeStrings(d)}
	if n := d.Len(); n > 0 {
		st.Waves = make([]Wave, n)
	}
	for i := range st.Waves {
		st.Waves[i] = Wave{Index: int(d.Varint()), Targets: decodeStrings(d)}
	}
	if n := d.Len(); n > 0 {
		st.Targets = make([]TargetState, n)
	}
	for i := range st.Targets {
		t := &st.Targets[i]
		t.ID, t.Domain, t.Wave = d.String(), d.String(), int(d.Varint())
		status := d.Uvarint()
		if status > uint64(StatusRolledBack) {
			return nil, fmt.Errorf("%w: target %d status %d", ErrCorruptState, i, status)
		}
		t.Status, t.Applied, t.Failures = Status(status), decodeStrings(d), int(d.Varint())
		t.Pause, t.Downtime, t.Err = time.Duration(d.Varint()), time.Duration(d.Varint()), d.String()
	}
	st.NextWave, st.Baseline, st.Halted = int(d.Varint()), time.Duration(d.Varint()), d.Bool()
	if err := d.Finish(); err != nil {
		return nil, fmt.Errorf("%w: %v", ErrCorruptState, err)
	}
	return st, nil
}

func appendStrings(b []byte, ss []string) []byte {
	b = wire.AppendUvarint(b, uint64(len(ss)))
	for _, s := range ss {
		b = wire.AppendString(b, s)
	}
	return b
}

// decodeStrings reads what appendStrings wrote; empty reads as nil.
func decodeStrings(d *wire.Decoder) []string {
	n := d.Len()
	if n == 0 {
		return nil
	}
	ss := make([]string, n)
	for i := range ss {
		ss[i] = d.String()
	}
	return ss
}

// Store persists rollout state across coordinator restarts. Load
// returns (nil, nil) when no state has been saved yet.
type Store interface {
	Save(*State) error
	Load() (*State, error)
}

// MemStore is an in-memory Store: the default for tests and the
// determinism witness for the chaos suite (Bytes exposes the exact
// persisted encoding).
type MemStore struct {
	mu  sync.Mutex
	buf []byte
}

// Save encodes and retains the state.
func (m *MemStore) Save(st *State) error {
	b := EncodeState(st)
	m.mu.Lock()
	m.buf = b
	m.mu.Unlock()
	return nil
}

// Load decodes the last saved state, or (nil, nil) if none.
func (m *MemStore) Load() (*State, error) {
	m.mu.Lock()
	b := append([]byte(nil), m.buf...)
	m.mu.Unlock()
	if len(b) == 0 {
		return nil, nil
	}
	return DecodeState(b)
}

// Bytes returns the last persisted encoding (nil if none) — the
// byte-identity witness seeded replays are compared on.
func (m *MemStore) Bytes() []byte {
	m.mu.Lock()
	defer m.mu.Unlock()
	return append([]byte(nil), m.buf...)
}

// FileStore persists state to one file with write-to-temp-then-rename
// atomicity, so a crash mid-save never leaves a torn record.
type FileStore struct {
	path string
	mu   sync.Mutex
}

// NewFileStore builds a store writing to path.
func NewFileStore(path string) *FileStore { return &FileStore{path: path} }

// Save atomically replaces the state file.
func (f *FileStore) Save(st *State) error {
	b := EncodeState(st)
	f.mu.Lock()
	defer f.mu.Unlock()
	tmp := f.path + ".tmp"
	if err := os.WriteFile(tmp, b, 0o644); err != nil {
		return fmt.Errorf("orchestrator: save state: %w", err)
	}
	if err := os.Rename(tmp, f.path); err != nil {
		return fmt.Errorf("orchestrator: save state: %w", err)
	}
	return nil
}

// Load reads the state file, or (nil, nil) if it does not exist.
func (f *FileStore) Load() (*State, error) {
	f.mu.Lock()
	b, err := os.ReadFile(f.path)
	f.mu.Unlock()
	if errors.Is(err, os.ErrNotExist) {
		return nil, nil
	}
	if err != nil {
		return nil, fmt.Errorf("orchestrator: load state: %w", err)
	}
	return DecodeState(b)
}
