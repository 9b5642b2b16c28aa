// Package a is the cellconfined golden fixture: a fake System.Do root
// committing every confinement violation the analyzer must flag,
// directly, through helpers, and through interface dispatch, plus the
// sanctioned patterns it must accept.
package a

import (
	b "ldis/internal/analysis/cellconfined/testdata/src/b"
)

var counter int
var table = map[int]int{1: 2}
var hook func(int) int

// L2 is dispatched through the system's own state, like the real
// hierarchy.L2.
type L2 interface {
	Access(n int)
}

// System is the per-cell state the root owns.
type System struct {
	L2  L2
	Org b.Org
	N   int
}

// Do matches the hierarchy root by receiver and name, so its whole
// call graph is verified cell-confined.
func (s *System) Do(n int) {
	counter++    // want `writes package-level variable "counter"`
	_ = table[n] // want `reads package-level map "table"`
	_ = hook(n)  // want `dynamic call through hook, which is not derived from the cell's own state`
	go spin()    // want `launches a goroutine`

	s.L2.Access(n) // resolves to goodL2.Access and leakyL2.Access below
	s.N += n       // write through the receiver: accepted
	helper(s)

	_ = b.Confined(n) // verified via the exported fact: no diagnostic
	_ = b.Tainted(n)  // want `call to internal/analysis/cellconfined/testdata/src/b\.Tainted is not cell-confined: writes package-level variable "total"`

	s.Org.Touch(n) // want `call to internal/analysis/cellconfined/testdata/src/b\.LeakyOrg\.Touch is not cell-confined`

	//ldis:confined-ok fixture: frozen-after-init gauge, single writer
	counter = n
}

func spin() {}

// helper is unannotated but reachable from the root, so its body is
// checked transitively.
func helper(s *System) {
	counter++ // want `writes package-level variable "counter".*\(in helper, reachable from root System\.Do\)`
	s.N++
}

// goodL2 keeps its state in its own fields.
type goodL2 struct{ hits int }

func (g *goodL2) Access(n int) { g.hits += n }

// leakyL2 is reached only through the interface call in Do.
type leakyL2 struct{}

func (leakyL2) Access(n int) {
	counter += n // want `\(in leakyL2\.Access, reachable from root System\.Do\)`
}

// Leak writes a package-level variable but is not reachable from the
// root, so it is not reported.
func Leak(n int) { counter += n }

func Unjustified() {
	//ldis:confined-ok // want `//ldis:confined-ok requires a justification`
	counter++
}
