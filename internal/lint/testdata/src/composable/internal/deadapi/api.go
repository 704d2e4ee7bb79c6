// Package deadapi is the deadapi golden package. Its caller,
// composable/cmd/deadapiuser, is loaded separately, as the benchmark
// module is, so its references reach this package through other objects.
package deadapi

import "io"

// Uncalled has no caller at all.
func Uncalled() {} // want `func Uncalled has no non-test reference`

// TestOnly is called only from api_test.go.
func TestOnly() {} // want `func TestOnly has no non-test reference`

// HelperOnly is called only from testhelper, a package only a test file
// imports.
func HelperOnly() {} // want `func HelperOnly has no non-test reference`

// Used is called from the caller package.
func Used() {}

// Orphan is a type nothing names.
type Orphan struct{} // want `type Orphan has no non-test reference`

// Stepper is the interface Drive calls through.
type Stepper interface{ Step() }

// Drive steps s; the caller package calls it.
func Drive(s Stepper) { s.Step() }

// Machine is stepped through Stepper.
type Machine struct{}

// Step implements Stepper, so it is live without a direct call.
func (Machine) Step() {}

// Extra implements nothing and nothing calls it.
func (Machine) Extra() {} // want `method Machine.Extra has no non-test reference`

// sink satisfies io.Writer, a standard-library interface.
type sink struct{}

// Write implements io.Writer.
func (sink) Write(p []byte) (int, error) { return len(p), nil }

// NewSink returns a writer; the caller package calls it.
func NewSink() io.Writer { return sink{} }

// Hook is a test hook with a written reason.
//
//lint:allow deadapi(golden: a test hook that carries a reason)
func Hook() {}

// Bare carries an allow line with no reason, which suppresses nothing.
//
//lint:allow deadapi()
func Bare() {} // want `func Bare has no non-test reference`
