// Package boundedgo enforces the simulator's goroutine discipline:
// under internal/ and cmd/, every `go` statement must be join-tracked
// — its enclosing function Adds to and Waits on a sync.WaitGroup — or
// carry a justified //ldis:goroutine-ok directive.
//
// The determinism and observability contracts both assume goroutine
// lifetimes nest inside the call that launched them: internal/par's
// Map bounds its workers with a WaitGroup, so when Run returns, no
// concurrent writer of cell or counter state survives. A
// fire-and-forget `go` breaks that silently — the leaked goroutine
// races with the next run's state, shows up only under -race and only
// when the schedule cooperates, and caps -parallel scaling with an
// invisible writer. This analyzer makes the discipline structural:
// launch through internal/par's bounded helpers (themselves verified
// by this check), track the goroutine with an Add/Wait pair in the
// same function, or justify the exception where a daemon really is
// intended (the obs HTTP listener).
//
// cmd/ entered the scope when ldisd arrived: a long-running service's
// listener and drainer goroutines carry exactly the leak risks the
// internal/ discipline exists for, so commands no longer get a pass.
//
// Test files are exempt: `go vet` analyzes *_test.go too, and tests
// legitimately launch helper goroutines bounded by the test's own
// lifetime.
package boundedgo

import (
	"go/ast"
	"go/types"
	"strings"

	"ldis/internal/analysis"
)

// Analyzer is the boundedgo analyzer.
var Analyzer = &analysis.Analyzer{
	Name: "boundedgo",
	Doc:  "every go statement under internal/ and cmd/ is WaitGroup-tracked in its enclosing function or justified with //ldis:goroutine-ok",
	Run:  run,
}

func run(pass *analysis.Pass) error {
	pass.Directives.CheckJustifications(pass, analysis.DirGoroutineOK)
	if !inScope(pass.Pkg.Path()) {
		return nil
	}
	for _, f := range pass.Files {
		name := pass.Fset.Position(f.Pos()).Filename
		if strings.HasSuffix(name, "_test.go") {
			continue
		}
		checkFile(pass, f)
	}
	return nil
}

// inScope covers internal/ and cmd/. Commands used to get a pass on
// the theory that main owns the process lifetime; ldisd ended that —
// a service binary's goroutines outlive any one request, and a leaked
// one is exactly as racy there as in the engine.
func inScope(path string) bool {
	return strings.HasPrefix(path, "ldis/internal/") ||
		strings.HasPrefix(path, "ldis/cmd/") ||
		strings.Contains(path, "/boundedgo/testdata/")
}

func checkFile(pass *analysis.Pass, f *ast.File) {
	var bodies []*ast.BlockStmt
	var gos []*ast.GoStmt
	ast.Inspect(f, func(n ast.Node) bool {
		switch x := n.(type) {
		case *ast.FuncDecl:
			if x.Body != nil {
				bodies = append(bodies, x.Body)
			}
		case *ast.FuncLit:
			bodies = append(bodies, x.Body)
		case *ast.GoStmt:
			gos = append(gos, x)
		}
		return true
	})
	for _, g := range gos {
		var encl *ast.BlockStmt
		for _, b := range bodies {
			if b.Pos() <= g.Pos() && g.End() <= b.End() {
				if encl == nil || b.Pos() > encl.Pos() {
					encl = b // innermost containing body
				}
			}
		}
		if encl != nil && waitGroupTracked(pass, encl) {
			continue
		}
		pass.ReportfSup(g.Pos(), analysis.DirGoroutineOK,
			"go statement is not WaitGroup-tracked in its enclosing function; launch through internal/par, pair it with Add/Wait, or justify with //ldis:goroutine-ok")
	}
}

// waitGroupTracked reports whether body both Adds to and Waits on the
// same sync.WaitGroup variable — the join pattern that bounds every
// goroutine the body launches.
func waitGroupTracked(pass *analysis.Pass, body *ast.BlockStmt) bool {
	adds := make(map[*types.Var]bool)
	waits := make(map[*types.Var]bool)
	ast.Inspect(body, func(n ast.Node) bool {
		call, ok := n.(*ast.CallExpr)
		if !ok {
			return true
		}
		sel, ok := ast.Unparen(call.Fun).(*ast.SelectorExpr)
		if !ok {
			return true
		}
		var set map[*types.Var]bool
		switch sel.Sel.Name {
		case "Add":
			set = adds
		case "Wait":
			set = waits
		default:
			return true
		}
		v := waitGroupVar(pass.TypesInfo, sel.X)
		if v != nil {
			set[v] = true
		}
		return true
	})
	for v := range adds {
		if waits[v] {
			return true
		}
	}
	return false
}

// waitGroupVar resolves e to a variable of type sync.WaitGroup (or
// pointer to it), walking selector chains (s.wg.Add(1)).
func waitGroupVar(info *types.Info, e ast.Expr) *types.Var {
	var obj types.Object
	switch x := ast.Unparen(e).(type) {
	case *ast.Ident:
		obj = info.Uses[x]
	case *ast.SelectorExpr:
		obj = info.Uses[x.Sel]
	default:
		return nil
	}
	v, ok := obj.(*types.Var)
	if !ok {
		return nil
	}
	t := v.Type()
	if p, ok := t.(*types.Pointer); ok {
		t = p.Elem()
	}
	named, ok := t.(*types.Named)
	if !ok || named.Obj().Pkg() == nil {
		return nil
	}
	if named.Obj().Pkg().Path() == "sync" && named.Obj().Name() == "WaitGroup" {
		return v
	}
	return nil
}
