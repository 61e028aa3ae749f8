// Package options carries the one error vocabulary every KShot
// constructor speaks. The public API converged on functional options
// (kshot.New, kshot.NewPatchServer, kshot.NewRollout all take With*
// funcs): an out-of-range value or a conflicting pair of options
// surfaces as a typed *options.Error from the constructor, before any
// resource is allocated — never as a latent misconfiguration discovered
// mid-run. A System's values are checked in one place,
// core.Options.Validate; kshot.New's With* funcs reject only an
// explicit zero or nil argument and a conflicting repeat.
//
// Callers branch with the standard helpers:
//
//	_, err := kshot.New(kshot.WithVCPUs(-1))
//	if errors.Is(err, kshot.ErrInvalidOption) { ... }
//	var oe *kshot.OptionError
//	if errors.As(err, &oe) { log.Printf("bad %s: %s", oe.Option, oe.Reason) }
package options

import (
	"errors"
	"fmt"
)

// ErrInvalid is the sentinel every option-validation failure unwraps
// to, regardless of which constructor rejected it.
var ErrInvalid = errors.New("options: invalid option")

// Error reports one rejected constructor option: which constructor,
// which With* func, and why. It matches ErrInvalid under errors.Is.
type Error struct {
	// Constructor is the public entry point that rejected the option
	// (e.g. "kshot.New", "kshot.NewRollout").
	Constructor string

	// Option is the With* function whose argument was rejected.
	Option string

	// Reason says what was wrong, in one clause.
	Reason string
}

// Errorf builds an *Error with a formatted reason.
func Errorf(constructor, option, format string, a ...any) *Error {
	return &Error{Constructor: constructor, Option: option, Reason: fmt.Sprintf(format, a...)}
}

// Error implements the error interface.
func (e *Error) Error() string {
	return fmt.Sprintf("%s: %s: %s", e.Constructor, e.Option, e.Reason)
}

// Is makes errors.Is(err, ErrInvalid) hold for every option error.
func (e *Error) Is(target error) bool { return target == ErrInvalid }
