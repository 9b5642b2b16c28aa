// Package cellconfined proves that simulating one access touches only
// the state of the simulated system it runs on.
//
// par.Grid runs many experiment cells at once, and each cell drives
// its own hierarchy.System through System.Do. The grid's determinism
// and race freedom rest on every function under Do touching only state
// reachable from that system: one package-level accumulator three
// calls below Do, in distill or cache or compress, is a data race
// between concurrent cells, and the race detector notices only when
// two writes happen to collide during a test run. gridpure checks the
// variables a cell closure captures and nowallclock checks clocks and
// global randomness; neither looks inside the simulator. This analyzer
// makes confinement a compile-time invariant:
//
//   - Confinement. Every function is summarized bottom-up as
//     "confined" when its body touches only state reachable from its
//     own receiver, parameters, and locals. Writing any package-level
//     variable, reading a package-level map (mutable and
//     iteration-order-unstable), launching a goroutine, or making a
//     dynamic call through anything not derived from the function's
//     own state all break confinement, as does calling an unconfined
//     (or unverifiable) in-module function. Summaries are exported as
//     facts, so the root verifies transitively into the l1, distill,
//     cache, compress, sfp and wordstore packages. Standard library
//     calls are exempt: they cannot name module globals. Reads of
//     non-map package-level variables are allowed: the tree uses them
//     as frozen-after-init lookup tables, and writes are banned
//     everywhere under the root, so they are constant there.
//
//   - Interface dispatch. A method call through an interface derived
//     from the function's own state (System.Do's s.L2.Access) counts
//     as a call to every implementation declared in the calling
//     package or in its in-module imports, so each L2 organization's
//     access path is held to confinement too.
//
//   - Root. hierarchy's System.Do is the verification root; violations
//     anywhere in its call graph are reported with the root named,
//     noalloc-style.
//
// `//ldis:confined-ok <why>` suppresses one diagnostic; the
// justification is mandatory.
package cellconfined

import (
	"fmt"
	"go/ast"
	"go/token"
	"go/types"
	"path/filepath"
	"strings"

	"ldis/internal/analysis"
)

// Analyzer is the cellconfined analyzer.
var Analyzer = &analysis.Analyzer{
	Name: "cellconfined",
	Doc:  "functions reachable from hierarchy.System.Do touch only state reachable from their own receiver, parameters and locals, so concurrent grid cells never share it",
	Run:  run,
}

// factViolation is the per-function fact: "" when the function is
// confined, otherwise the first violation found in its call graph.
const factViolation = "violation"

// rootPkg, rootRecv and rootName name the verification root,
// hierarchy.System.Do. Fixture packages under this analyzer's testdata
// tree match by receiver and method name alone.
const (
	rootPkg  = "ldis/internal/hierarchy"
	rootRecv = "System"
	rootName = "Do"
)

func isRoot(pkg string, obj *types.Func) bool {
	if pkg != rootPkg && !strings.Contains(pkg, "/cellconfined/testdata/") {
		return false
	}
	recv := obj.Type().(*types.Signature).Recv()
	return recv != nil && obj.Name() == rootName && recvName(recv.Type()) == rootRecv
}

type finding struct {
	pos token.Pos
	msg string
}

type callSite struct {
	pos    token.Pos
	callee *types.Func
}

type funcData struct {
	decl     *ast.FuncDecl
	obj      *types.Func
	findings []finding
	calls    []callSite
	// summary memoization: 0 unvisited, 1 in progress, 2 done.
	state     int
	violation string
}

type checker struct {
	pass  *analysis.Pass
	funcs map[*types.Func]*funcData
}

func run(pass *analysis.Pass) error {
	pass.Directives.CheckJustifications(pass, analysis.DirConfinedOK)
	c := &checker{pass: pass, funcs: make(map[*types.Func]*funcData)}

	// Collect and scan every function declaration.
	var order []*funcData
	for _, f := range pass.Files {
		for _, decl := range f.Decls {
			fd, ok := decl.(*ast.FuncDecl)
			if !ok || fd.Body == nil {
				continue
			}
			obj, ok := pass.TypesInfo.Defs[fd.Name].(*types.Func)
			if !ok {
				continue
			}
			data := &funcData{decl: fd, obj: obj}
			c.funcs[obj] = data
			order = append(order, data)
		}
	}
	for _, data := range order {
		c.scanBody(data)
	}

	// Export every function's summary, so importing packages verify
	// cross-package calls.
	for _, data := range order {
		pass.ExportFact(data.obj, factViolation, c.violation(data.obj))
	}

	// Report transitively from the root.
	reported := make(map[*types.Func]bool)
	for _, data := range order {
		if isRoot(pass.Pkg.Path(), data.obj) {
			c.report(data, data, reported)
		}
	}
	return nil
}

// ---------------------------------------------------------------------
// Body scanning
// ---------------------------------------------------------------------

func (c *checker) scanBody(data *funcData) {
	info := c.pass.TypesInfo
	der := newDerivedTracker(c.pass, data.decl)
	add := func(pos token.Pos, format string, args ...any) {
		data.findings = append(data.findings, finding{pos, fmt.Sprintf(format, args...)})
	}

	// flagged dedupes the package-level map check against write
	// findings landing on the same identifier.
	flagged := make(map[token.Pos]bool)

	checkWrite := func(lhs ast.Expr) {
		root := rootIdent(lhs)
		if root == nil {
			return
		}
		if v, ok := info.Uses[root].(*types.Var); ok && pkgLevel(v) {
			flagged[root.Pos()] = true
			add(root.Pos(), "writes package-level variable %q, which concurrent cells share", v.Name())
		}
	}

	ast.Inspect(data.decl.Body, func(n ast.Node) bool {
		switch e := n.(type) {
		case *ast.AssignStmt:
			for _, lhs := range e.Lhs {
				if e.Tok == token.DEFINE {
					continue
				}
				checkWrite(lhs)
			}

		case *ast.IncDecStmt:
			checkWrite(e.X)

		case *ast.GoStmt:
			add(e.Pos(), "launches a goroutine; a cell runs on one grid worker and must stay single-threaded")

		case *ast.CallExpr:
			// Conversions and builtins are not calls: they cannot
			// reach module state.
			if tv, ok := info.Types[e.Fun]; ok && (tv.IsType() || tv.IsBuiltin()) {
				return true
			}
			callee := staticCallee(info, e)
			if callee == nil {
				// Dynamic dispatch: sanctioned only through the
				// function's own state (an interface field of its
				// system, a parameter-derived func value). Interface
				// calls then stand for a call to every implementation
				// in sight, each answering for its own confinement.
				if !der.derived(receiverOf(e)) {
					add(e.Pos(), "dynamic call through %s, which is not derived from the cell's own state", types.ExprString(e.Fun))
					return true
				}
				for _, impl := range c.implementations(e) {
					data.calls = append(data.calls, callSite{e.Pos(), impl})
				}
				return true
			}
			if callee.Pkg() == nil || !inModule(callee.Pkg().Path()) {
				return true // stdlib cannot name module globals
			}
			data.calls = append(data.calls, callSite{e.Pos(), callee})
		}
		return true
	})

	// Package-level maps are mutable, shared, and iteration-unstable:
	// even reads are off-limits under the root.
	ast.Inspect(data.decl.Body, func(n ast.Node) bool {
		id, ok := n.(*ast.Ident)
		if !ok || flagged[id.Pos()] {
			return true
		}
		v, ok := info.Uses[id].(*types.Var)
		if !ok || !pkgLevel(v) {
			return true
		}
		if _, isMap := v.Type().Underlying().(*types.Map); isMap {
			add(id.Pos(), "reads package-level map %q; map state is shared across cells and its iteration order is unstable", v.Name())
		}
		return true
	})
}

// implementations resolves an interface method call to the methods of
// every named type, declared in this package or an in-module import,
// that implements the interface. Func-value calls resolve to nothing.
func (c *checker) implementations(call *ast.CallExpr) []*types.Func {
	fun, ok := ast.Unparen(call.Fun).(*ast.SelectorExpr)
	if !ok {
		return nil
	}
	sel, ok := c.pass.TypesInfo.Selections[fun]
	if !ok || sel.Kind() != types.MethodVal {
		return nil
	}
	iface, ok := sel.Recv().Underlying().(*types.Interface)
	if !ok {
		return nil
	}
	pkgs := []*types.Package{c.pass.Pkg}
	for _, imp := range c.pass.Pkg.Imports() {
		if inModule(imp.Path()) {
			pkgs = append(pkgs, imp)
		}
	}
	var impls []*types.Func
	for _, pkg := range pkgs {
		scope := pkg.Scope()
		for _, name := range scope.Names() {
			tn, ok := scope.Lookup(name).(*types.TypeName)
			if !ok || tn.IsAlias() || types.IsInterface(tn.Type()) {
				continue
			}
			if named, ok := tn.Type().(*types.Named); ok && named.TypeParams().Len() > 0 {
				continue // Implements is unspecified for uninstantiated generics
			}
			t := tn.Type()
			if !types.Implements(t, iface) {
				t = types.NewPointer(t)
				if !types.Implements(t, iface) {
					continue
				}
			}
			obj, _, _ := types.LookupFieldOrMethod(t, false, pkg, fun.Sel.Name)
			if fn, ok := obj.(*types.Func); ok {
				impls = append(impls, fn)
			}
		}
	}
	return impls
}

// report emits the findings of fn (and, recursively, of its in-package
// callees) in the context of the verification root.
func (c *checker) report(root, fn *funcData, reported map[*types.Func]bool) {
	if reported[fn.obj] {
		return
	}
	reported[fn.obj] = true
	suffix := ""
	if fn != root {
		suffix = fmt.Sprintf(" (in %s, reachable from root %s)", funcName(fn.obj), funcName(root.obj))
	}
	for _, f := range fn.findings {
		c.pass.ReportfSup(f.pos, analysis.DirConfinedOK, "%s%s", f.msg, suffix)
	}
	for _, call := range fn.calls {
		if data, ok := c.funcs[call.callee]; ok {
			c.report(root, data, reported)
			continue
		}
		why, known := c.callViolation(call.callee)
		switch {
		case known && why == "":
			continue
		case known:
			c.pass.ReportfSup(call.pos, analysis.DirConfinedOK, "call to %s is not cell-confined: %s%s", qualifiedName(call.callee), why, suffix)
		case !c.pass.ModuleFacts && !samePackage(c.pass.Pkg, call.callee):
			// Unitchecker regime: no cross-package facts; the
			// standalone driver is the authoritative gate.
		default:
			c.pass.ReportfSup(call.pos, analysis.DirConfinedOK, "call to %s cannot be verified cell-confined%s", qualifiedName(call.callee), suffix)
		}
	}
}

// violation computes the bottom-up summary of fn: "" when it is
// confined, otherwise its first violation, located. Cycles are
// resolved optimistically, like noalloc's clean summary.
func (c *checker) violation(fn *types.Func) string {
	data, ok := c.funcs[fn]
	if !ok {
		why, known := c.callViolation(fn)
		if !known {
			return "calls " + qualifiedName(fn) + ", which cannot be verified"
		}
		return why
	}
	switch data.state {
	case 1:
		return "" // optimistic on cycles
	case 2:
		return data.violation
	}
	data.state = 1
	// The full loop (no early break) marks every live suppression used
	// for the stale sweep.
	why := ""
	for _, f := range data.findings {
		if !c.pass.Suppressed(f.pos, analysis.DirConfinedOK) && why == "" {
			pos := c.pass.Fset.Position(f.pos)
			why = fmt.Sprintf("%s (in %s at %s:%d)", f.msg, funcName(data.obj), filepath.Base(pos.Filename), pos.Line)
		}
	}
	for _, call := range data.calls {
		if why != "" {
			break
		}
		if _, local := c.funcs[call.callee]; local {
			why = c.violation(call.callee)
			continue
		}
		if !c.pass.ModuleFacts && !samePackage(c.pass.Pkg, call.callee) {
			continue // unitchecker regime: degrade gracefully
		}
		if sub := c.violation(call.callee); sub != "" && !c.pass.Suppressed(call.pos, analysis.DirConfinedOK) {
			why = sub
		}
	}
	data.state = 2
	data.violation = why
	return why
}

// callViolation returns the exported summary of a callee without a
// local body; known is false when no fact exists.
func (c *checker) callViolation(callee *types.Func) (why string, known bool) {
	v, ok := c.pass.ImportFact(callee, factViolation)
	if !ok {
		return "", false
	}
	why, _ = v.(string)
	return why, true
}

// ---------------------------------------------------------------------
// Helpers
// ---------------------------------------------------------------------

func inModule(path string) bool {
	return path == "ldis" || strings.HasPrefix(path, "ldis/")
}

func samePackage(pkg *types.Package, fn *types.Func) bool {
	return fn.Pkg() != nil && fn.Pkg().Path() == pkg.Path()
}

func qualifiedName(fn *types.Func) string {
	return strings.TrimPrefix(analysis.ObjectKey(fn), "ldis/")
}

// funcName names a function for diagnostics: "Recv.Name" for methods.
func funcName(fn *types.Func) string {
	if recv := fn.Type().(*types.Signature).Recv(); recv != nil {
		return recvName(recv.Type()) + "." + fn.Name()
	}
	return fn.Name()
}

// recvName returns the type name of a method receiver.
func recvName(t types.Type) string {
	if p, ok := t.(*types.Pointer); ok {
		t = p.Elem()
	}
	if n, ok := t.(*types.Named); ok {
		return n.Obj().Name()
	}
	return t.String()
}

// pkgLevel reports whether v is a package-level variable (of this or
// any imported package).
func pkgLevel(v *types.Var) bool {
	return v != nil && !v.IsField() && v.Pkg() != nil &&
		v.Parent() == v.Pkg().Scope()
}

// rootIdent walks to the base identifier of an lvalue chain.
func rootIdent(e ast.Expr) *ast.Ident {
	for {
		switch x := ast.Unparen(e).(type) {
		case *ast.Ident:
			return x
		case *ast.IndexExpr:
			e = x.X
		case *ast.SelectorExpr:
			e = x.X
		case *ast.StarExpr:
			e = x.X
		default:
			return nil
		}
	}
}

// receiverOf returns the expression a dynamic call dispatches through:
// the selector base for method values, the call expression itself for
// func values.
func receiverOf(call *ast.CallExpr) ast.Expr {
	if sel, ok := ast.Unparen(call.Fun).(*ast.SelectorExpr); ok {
		return sel.X
	}
	return call.Fun
}

func staticCallee(info *types.Info, call *ast.CallExpr) *types.Func {
	switch fun := ast.Unparen(call.Fun).(type) {
	case *ast.Ident:
		fn, _ := info.Uses[fun].(*types.Func)
		return fn
	case *ast.SelectorExpr:
		if sel, ok := info.Selections[fun]; ok && sel.Kind() == types.MethodVal {
			if types.IsInterface(sel.Recv().Underlying()) {
				return nil // interface dispatch is dynamic
			}
			fn, _ := sel.Obj().(*types.Func)
			return fn
		}
		fn, _ := info.Uses[fun.Sel].(*types.Func)
		return fn
	case *ast.IndexExpr: // generic instantiation f[T](...)
		return staticCallee(info, &ast.CallExpr{Fun: fun.X})
	case *ast.IndexListExpr:
		return staticCallee(info, &ast.CallExpr{Fun: fun.X})
	}
	return nil
}

// ---------------------------------------------------------------------
// Derivation tracking
// ---------------------------------------------------------------------

// derivedTracker decides whether an expression derives from the
// function's own state: its receiver, parameters, named results,
// locals built from those, and fresh literals. Dynamic dispatch is
// sanctioned only through derived expressions: the object dispatched
// on then belongs to the cell, and the implementation's own
// confinement is enforced separately.
type derivedTracker struct {
	pass  *analysis.Pass
	owned map[*types.Var]bool
	// assigns maps each local to every right-hand side assigned to it.
	assigns map[*types.Var][]ast.Expr
	lo, hi  token.Pos
	memo    map[*types.Var]int // 0 new, 1 visiting, 2 ok, 3 bad
}

func newDerivedTracker(pass *analysis.Pass, decl *ast.FuncDecl) *derivedTracker {
	t := &derivedTracker{
		pass:    pass,
		owned:   make(map[*types.Var]bool),
		assigns: make(map[*types.Var][]ast.Expr),
		lo:      decl.Pos(),
		hi:      decl.End(),
		memo:    make(map[*types.Var]int),
	}
	collect := func(fl *ast.FieldList) {
		if fl == nil {
			return
		}
		for _, field := range fl.List {
			for _, name := range field.Names {
				if v, ok := pass.TypesInfo.Defs[name].(*types.Var); ok {
					t.owned[v] = true
				}
			}
		}
	}
	collect(decl.Recv)
	collect(decl.Type.Params)
	collect(decl.Type.Results)

	record := func(lhs, rhs ast.Expr) {
		if id, ok := ast.Unparen(lhs).(*ast.Ident); ok {
			if v := t.varOf(id); v != nil {
				t.assigns[v] = append(t.assigns[v], rhs)
			}
		}
	}
	ast.Inspect(decl.Body, func(n ast.Node) bool {
		switch s := n.(type) {
		case *ast.AssignStmt:
			if len(s.Lhs) == len(s.Rhs) {
				for i, lhs := range s.Lhs {
					record(lhs, s.Rhs[i])
				}
			} else if len(s.Rhs) == 1 {
				// Comma-ok / multi-value: every LHS derives from the
				// single RHS (m, ok := x.(Iface); v, err := f()).
				for _, lhs := range s.Lhs {
					record(lhs, s.Rhs[0])
				}
			}
		case *ast.ValueSpec:
			for i, name := range s.Names {
				if i < len(s.Values) {
					record(name, s.Values[i])
				}
			}
		}
		return true
	})
	return t
}

func (t *derivedTracker) varOf(id *ast.Ident) *types.Var {
	if v, ok := t.pass.TypesInfo.Defs[id].(*types.Var); ok {
		return v
	}
	v, _ := t.pass.TypesInfo.Uses[id].(*types.Var)
	return v
}

func (t *derivedTracker) derived(e ast.Expr) bool {
	switch x := ast.Unparen(e).(type) {
	case *ast.Ident:
		v := t.varOf(x)
		if v == nil {
			return false
		}
		return t.varDerived(v)
	case *ast.SelectorExpr:
		// A field of a derived value is derived; pkg.Var has a PkgName
		// base, which is not a derived expression.
		return t.derived(x.X)
	case *ast.IndexExpr:
		return t.derived(x.X)
	case *ast.StarExpr:
		return t.derived(x.X)
	case *ast.UnaryExpr:
		return t.derived(x.X)
	case *ast.TypeAssertExpr:
		return t.derived(x.X)
	case *ast.CompositeLit, *ast.BasicLit:
		return true // fresh values belong to the cell
	case *ast.CallExpr:
		// A conversion or builtin over derived operands yields a
		// derived value (uint64(s.N), s.lines[i:j]).
		if tv, ok := t.pass.TypesInfo.Types[x.Fun]; ok && (tv.IsType() || tv.IsBuiltin()) {
			for _, arg := range x.Args {
				if !t.derived(arg) {
					return false
				}
			}
			return true
		}
		// The result of a method call on a derived receiver is derived
		// (sys.StartWindow(), s.L1D.Stats()).
		if sel, ok := ast.Unparen(x.Fun).(*ast.SelectorExpr); ok {
			if _, isSel := t.pass.TypesInfo.Selections[sel]; isSel {
				return t.derived(sel.X)
			}
		}
		return false
	}
	return false
}

// varDerived reports whether a variable derives from function-owned
// state: a parameter/receiver/named result, or a local whose every
// recorded assignment derives. A local with no recorded assignments
// (range variables, zero-value declarations) is owned by construction.
func (t *derivedTracker) varDerived(v *types.Var) bool {
	if t.owned[v] {
		return true
	}
	if v.Pos() < t.lo || v.Pos() > t.hi {
		return false // captured from outside the function
	}
	switch t.memo[v] {
	case 1, 2:
		return true // optimistic on self-assignment cycles
	case 3:
		return false
	}
	rhss := t.assigns[v]
	t.memo[v] = 1
	ok := true
	for _, rhs := range rhss {
		if !t.derived(rhs) {
			ok = false
			break
		}
	}
	if ok {
		t.memo[v] = 2
	} else {
		t.memo[v] = 3
	}
	return ok
}
