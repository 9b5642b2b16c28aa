// Package detrange forbids ranging over maps in the simulator's
// deterministic-output packages.
//
// The experiment engine's contract — byte-identical tables at any
// -parallel worker count — dies the moment map iteration order can
// reach an output row, a table cell, or a result-assembly index. In
// the packages that assemble output (internal/exp, internal/stats,
// internal/par), the benchmark registry that feeds row order
// (internal/workload), the chaos-suite fault injectors whose
// decisions must reproduce bit-for-bit (internal/faultinject), and
// the miss-ratio-curve engine whose SHARDS sampling must be a pure
// function of (address, seed) (internal/mrc), and the observability
// layer whose manifests must diff clean at any worker count
// (internal/obs), and the partition controller whose per-epoch
// allocation decisions feed experiment tables directly
// (internal/partition), a
// `for ... range m` over a map is therefore banned
// outright: either iterate a sorted key slice, or annotate the site
// with `//ldis:nondet-ok <why>` proving the order cannot reach any
// output (for example, a key collection that is sorted immediately
// below).
package detrange

import (
	"go/ast"
	"go/types"
	"strings"

	"ldis/internal/analysis"
)

// Packages lists the deterministic-output packages the check covers.
var Packages = []string{
	"ldis/internal/exp",
	"ldis/internal/stats",
	"ldis/internal/par",
	"ldis/internal/workload",
	"ldis/internal/faultinject",
	"ldis/internal/mrc",
	"ldis/internal/obs",
	// The hierarchy harness: its measurement-window counters land in
	// rendered tables, so iteration order could reach output.
	"ldis/internal/hierarchy",
	// The partition controller: epoch decisions (allocations, agreement
	// counters) land in rendered tables, so iteration order is output
	// order.
	"ldis/internal/partition",
	// The energy model: way-memoization totals feed the orgs acceptance
	// gate and its rendered tables, so accumulation order must be fixed.
	"ldis/internal/costmodel",
}

// Analyzer is the detrange analyzer.
var Analyzer = &analysis.Analyzer{
	Name: "detrange",
	Doc:  "forbid map iteration in deterministic-output packages (internal/exp, internal/stats, internal/par, internal/workload, internal/faultinject, internal/mrc, internal/obs, internal/hierarchy, internal/partition, internal/costmodel) unless annotated //ldis:nondet-ok",
	Run:  run,
}

func inScope(path string) bool {
	for _, p := range Packages {
		if path == p {
			return true
		}
	}
	// Fixture packages under this analyzer's own testdata tree are
	// always in scope so the golden tests exercise the real check.
	return strings.Contains(path, "/detrange/testdata/")
}

func run(pass *analysis.Pass) error {
	if !inScope(pass.Pkg.Path()) {
		return nil
	}
	pass.Directives.CheckJustifications(pass, analysis.DirNondetOK)
	for _, f := range pass.Files {
		ast.Inspect(f, func(n ast.Node) bool {
			rs, ok := n.(*ast.RangeStmt)
			if !ok {
				return true
			}
			tv, ok := pass.TypesInfo.Types[rs.X]
			if !ok {
				return true
			}
			if _, isMap := tv.Type.Underlying().(*types.Map); !isMap {
				return true
			}
			pass.ReportfSup(rs.Pos(), analysis.DirNondetOK, "range over map %s in deterministic-output package %s; iterate sorted keys instead, or annotate //ldis:nondet-ok with why the order cannot reach any output", types.ExprString(rs.X), pass.Pkg.Path())
			return true
		})
	}
	return nil
}
