// Package suite registers the ldislint analyzers in the order the
// multichecker runs them.
package suite

import (
	"ldis/internal/analysis"
	"ldis/internal/analysis/atomicplain"
	"ldis/internal/analysis/boundedgo"
	"ldis/internal/analysis/cellconfined"
	"ldis/internal/analysis/detrange"
	"ldis/internal/analysis/gridpure"
	"ldis/internal/analysis/noalloc"
	"ldis/internal/analysis/nowallclock"
)

// All lists every analyzer ldislint runs, in reporting order.
var All = []*analysis.Analyzer{
	noalloc.Analyzer,
	detrange.Analyzer,
	nowallclock.Analyzer,
	gridpure.Analyzer,
	cellconfined.Analyzer,
	atomicplain.Analyzer,
	boundedgo.Analyzer,
}
