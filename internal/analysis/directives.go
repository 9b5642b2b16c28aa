package analysis

import (
	"go/ast"
	"go/token"
	"strings"
	"unicode"
)

// The ldislint directive grammar. Directives are ordinary comments
// beginning with "ldis:" immediately after the comment marker (no
// space, mirroring //go:); both line ("//ldis:...") and block
// ("/*ldis:...*/") forms parse.
//
//	//ldis:noalloc
//	    On a function's doc comment: the function and everything it
//	    transitively calls within the module must not allocate.
//	//ldis:alloc-ok <justification>
//	    On (or immediately above) a flagged line: suppresses noalloc
//	    diagnostics for that line. The justification is mandatory.
//	//ldis:nondet-ok <justification>
//	    On (or immediately above) a flagged line: suppresses detrange,
//	    nowallclock, and gridpure diagnostics for that line. The
//	    justification is mandatory.
//	//ldis:confined-ok <justification>
//	    Suppresses cellconfined diagnostics for that line.
//	//ldis:atomic-ok <justification>
//	    Suppresses atomicplain diagnostics for that line.
//	//ldis:goroutine-ok <justification>
//	    Suppresses boundedgo diagnostics for that line.
const (
	DirNoalloc     = "noalloc"
	DirAllocOK     = "alloc-ok"
	DirNondetOK    = "nondet-ok"
	DirConfinedOK  = "confined-ok"
	DirAtomicOK    = "atomic-ok"
	DirGoroutineOK = "goroutine-ok"
	directivePfx   = "ldis:"
)

// suppressionDirs are the directive names that silence one diagnostic
// on their line; each requires a justification and each is subject to
// the stale sweep (StaleSuppressions).
var suppressionDirs = map[string]bool{
	DirAllocOK:     true,
	DirNondetOK:    true,
	DirConfinedOK:  true,
	DirAtomicOK:    true,
	DirGoroutineOK: true,
}

// annotationDirs are the directive names that mark a declaration for
// an analyzer rather than suppressing a diagnostic.
var annotationDirs = map[string]bool{
	DirNoalloc: true,
}

// SuppressionDirective reports whether name is a suppression
// directive (//ldis:<name> <justification> silencing one diagnostic).
func SuppressionDirective(name string) bool { return suppressionDirs[name] }

// KnownDirective reports whether name is part of the directive
// grammar. The stale sweep flags unknown names: a typo like
// //ldis:aloc-ok neither suppresses nor errors, which is the worst of
// both.
func KnownDirective(name string) bool {
	return suppressionDirs[name] || annotationDirs[name]
}

// A Directive is one parsed //ldis: comment.
type Directive struct {
	Name   string // e.g. "noalloc", "alloc-ok"
	Reason string // trailing justification text, may be empty
	Pos    token.Pos
}

// parseDirective extracts the directive from one comment's text
// (including its comment markers), handling both //ldis:... and
// /*ldis:...*/ forms. The name ends at the first whitespace of any
// kind — previously a tab after the name made the whole directive
// silently unrecognized, so "//ldis:alloc-ok\t" neither suppressed
// nor tripped the justification check.
func parseDirective(text string) (name, reason string, ok bool) {
	if rest, found := strings.CutPrefix(text, "/*"); found {
		text = strings.TrimSuffix(rest, "*/")
	} else if rest, found := strings.CutPrefix(text, "//"); found {
		text = rest
	}
	body, found := strings.CutPrefix(text, directivePfx)
	if !found {
		return "", "", false
	}
	name, reason = body, ""
	if i := strings.IndexFunc(body, unicode.IsSpace); i >= 0 {
		name, reason = body[:i], body[i+1:]
	}
	// A justification never contains "//": anything after one is
	// commentary about the directive (the golden-test fixtures rely on
	// this to pair a bare directive with a // want expectation on the
	// same line).
	reason, _, _ = strings.Cut(reason, "//")
	return name, strings.TrimSpace(reason), true
}

// Directives indexes the //ldis: comments of a package by file line.
type Directives struct {
	fset *token.FileSet
	// byLine maps file+line to the directives written on that line.
	byLine map[lineKey][]Directive
	all    []Directive
}

type lineKey struct {
	file string
	line int
}

// ParseDirectives scans every comment of files for //ldis: directives.
func ParseDirectives(fset *token.FileSet, files []*ast.File) *Directives {
	d := &Directives{fset: fset, byLine: make(map[lineKey][]Directive)}
	for _, f := range files {
		for _, cg := range f.Comments {
			for _, c := range cg.List {
				name, reason, ok := parseDirective(c.Text)
				if !ok {
					continue
				}
				pos := fset.Position(c.Pos())
				dir := Directive{Name: name, Reason: reason, Pos: c.Pos()}
				d.byLine[lineKey{pos.Filename, pos.Line}] = append(
					d.byLine[lineKey{pos.Filename, pos.Line}], dir)
				d.all = append(d.all, dir)
			}
		}
	}
	return d
}

// All returns every directive of the package in source order.
func (d *Directives) All() []Directive { return d.all }

// At returns the directive of the given name attached to pos's line —
// written either on the line itself or on the line directly above it
// (the conventional spot for a suppression comment).
func (d *Directives) At(pos token.Pos, name string) (Directive, bool) {
	p := d.fset.Position(pos)
	for _, line := range []int{p.Line, p.Line - 1} {
		for _, dir := range d.byLine[lineKey{p.Filename, line}] {
			if dir.Name == name {
				return dir, true
			}
		}
	}
	return Directive{}, false
}

// Suppressed reports whether a diagnostic at pos is silenced by the
// given suppression directive. A suppression without a justification
// does not suppress — the analyzers flag it separately via
// CheckJustifications. Prefer Pass.Suppressed / Pass.ReportfSup, which
// also feed the stale-suppression sweep.
func (d *Directives) Suppressed(pos token.Pos, name string) bool {
	dir, ok := d.At(pos, name)
	return ok && dir.Reason != ""
}

// FuncHas reports whether fn's doc comment carries the named
// directive (e.g. //ldis:noalloc).
func (d *Directives) FuncHas(fn *ast.FuncDecl, name string) bool {
	if fn.Doc == nil {
		return false
	}
	for _, c := range fn.Doc.List {
		if got, _, ok := parseDirective(c.Text); ok && got == name {
			return true
		}
	}
	return false
}

// CheckJustifications reports every suppression directive of the given
// name that lacks a justification. Analyzers call this so that a bare
// "//ldis:nondet-ok" cannot silently disable a check.
func (d *Directives) CheckJustifications(pass *Pass, name string) {
	for _, dir := range d.all {
		if dir.Name == name && dir.Reason == "" {
			pass.Reportf(dir.Pos, "//ldis:%s requires a justification (\"//ldis:%s <why>\")", name, name)
		}
	}
}
