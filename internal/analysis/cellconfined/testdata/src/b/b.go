// Package b exercises cellconfined's cross-package facts: package a
// calls its functions and dispatches to its Org implementations, and
// the summaries exported here are what let the analyzer accept some of
// those calls and reject the others.
package b

var total int

// Confined touches only its own state; its exported summary lets code
// under the root in importing packages call it.
func Confined(x int) int { return x * 2 }

// Tainted accumulates into a package-level variable, so it can never
// appear under the root.
func Tainted(x int) int {
	total += x
	return total
}

// Org is an organization interface dispatched through a cell's own
// state.
type Org interface {
	Touch(n int)
}

// CleanOrg counts into its own fields.
type CleanOrg struct{ N int }

// Touch implements Org.
func (o *CleanOrg) Touch(n int) { o.N += n }

// LeakyOrg counts into a package-level variable.
type LeakyOrg struct{}

// Touch implements Org through the shared counter.
func (LeakyOrg) Touch(n int) { total += n }
