package core

import (
	"errors"
	"fmt"

	"kshot/internal/smmpatch"
)

// Typed failure classes for the Apply/Rollback/ApplyAll paths. Callers
// branch with errors.Is rather than matching message strings:
//
//	_, err := sys.Apply(ctx, cve)
//	switch {
//	case errors.Is(err, core.ErrTargetActive): // retry later
//	case errors.Is(err, core.ErrFetch):        // network/server trouble
//	}
var (
	// ErrFetch classifies Stage-1 failures: the helper could not reach
	// the remote server (including at first contact) or download the
	// encrypted patch from it.
	ErrFetch = errors.New("core: patch fetch failed")

	// ErrEnclavePrepare classifies Stage-2 failures: the SGX enclave
	// refused or failed to preprocess the patch (bad server seal, wrong
	// kernel version, unresolvable symbols).
	ErrEnclavePrepare = errors.New("core: enclave preparation failed")

	// ErrStatusMismatch classifies Stage-4 confirmation failures: the
	// SMM status mailbox reported a different outcome than the helper
	// expected. Inspect the *StatusError for the codes.
	ErrStatusMismatch = errors.New("core: unexpected SMM status")

	// ErrTargetActive re-exports the SMM activeness refusal so callers
	// need not import smmpatch to classify the one retryable failure.
	ErrTargetActive = smmpatch.ErrTargetActive

	// ErrUnacknowledged marks an Apply or ApplyAll whose closing round
	// trip did not get SMM's newest MAC'd status record acknowledged by
	// the patch server. It comes together with the Report or
	// BatchReport of what SMM did: the patches are applied whatever the
	// server recorded. The record stays pending, and the next Apply,
	// ApplyAll or Close re-sends it. Rollback makes no round trip and
	// never returns it.
	ErrUnacknowledged = errors.New("core: status report not acknowledged")
)

// StatusError reports a status-mailbox code that did not match the
// expected outcome of a delivery. It matches ErrStatusMismatch under
// errors.Is and is retrieved with errors.As for the codes.
type StatusError struct {
	ID   string // patch ID the delivery was for
	Got  uint32 // smmpatch.Status* code read from the mailbox
	Want uint32
}

func (e *StatusError) Error() string {
	return fmt.Sprintf("core: %s: SMM status %d, want %d", e.ID, e.Got, e.Want)
}

// Is makes errors.Is(err, ErrStatusMismatch) true for StatusErrors.
func (e *StatusError) Is(target error) bool { return target == ErrStatusMismatch }
