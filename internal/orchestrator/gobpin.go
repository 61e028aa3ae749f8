package orchestrator

import (
	"encoding/gob"
	"io"
)

// init pins encoding/gob's process-global type IDs for the persisted
// rollout state, in one canonical order, so the byte encoding never
// depends on what else the process gob-encoded first. This is what
// makes a resumed coordinator's state file — and the chaos suite's
// byte-identity replay witness — stable across processes. See the
// matching pin in internal/patch.
func init() {
	enc := gob.NewEncoder(io.Discard)
	for _, v := range []any{&State{}, &Wave{}, &TargetState{}} {
		if err := enc.Encode(v); err != nil {
			panic("orchestrator: gob type pin: " + err.Error())
		}
	}
}
