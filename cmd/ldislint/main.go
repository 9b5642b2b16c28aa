// Ldislint is the simulator's static-analysis gate: a multichecker
// over the analyzers in internal/analysis (noalloc, detrange,
// nowallclock, gridpure, cellconfined, atomicplain, boundedgo) that
// enforces the determinism, zero-allocation, and concurrency-safety
// invariants the experiment engine depends on.
//
// Two driver modes:
//
//	ldislint [-json] [-stale] [packages]
//	                          standalone whole-module run (default
//	                          ./...); analyzes every module package in
//	                          dependency order so cross-package facts
//	                          (noalloc clean summaries, cellconfined
//	                          summaries, atomicplain locations) are
//	                          available. This is what `make lint` runs
//	                          and it is the authoritative gate.
//
//	go vet -vettool=$(command -v ldislint) ./...
//	                          vet driver mode. The go command invokes
//	                          ldislint once per package with a JSON
//	                          config file (the unitchecker protocol);
//	                          each package is checked in isolation, so
//	                          cross-package verification is skipped in
//	                          this mode.
//
// Flags (standalone mode only):
//
//	-json   emit every diagnostic as one JSON object per line —
//	        {"analyzer","pos","message","suppressed"[,"suppressed_by"]} —
//	        including the suppressed ones text mode hides; CI uploads
//	        this as the lint-report artifact. The exit code still counts
//	        only unsuppressed diagnostics.
//	-stale  run the stale-suppression sweep instead of the analyzers'
//	        normal reporting: every justified //ldis:*-ok directive that
//	        no analyzer consulted, and every unknown //ldis: name, is a
//	        diagnostic. This is `make lint-fix-check`.
//
// Exit status: 0 clean, 1 usage or load failure, 2 diagnostics.
package main

import (
	"crypto/sha256"
	"encoding/json"
	"flag"
	"fmt"
	"go/ast"
	"go/importer"
	"go/parser"
	"go/token"
	"go/types"
	"io"
	"os"
	"path/filepath"
	"strings"

	"ldis/internal/analysis"
	"ldis/internal/analysis/suite"
)

func main() {
	os.Exit(run(os.Args[1:], os.Stdout))
}

func run(args []string, stdout io.Writer) int {
	// The go command probes vettools before use: `-V=full` must print
	// a version line carrying a build ID (it keys vet's result cache on
	// it; a content hash of the executable serves), and `-flags` must
	// describe the supported flags.
	if len(args) == 1 && strings.HasPrefix(args[0], "-V") {
		exe, err := os.Executable()
		if err != nil {
			fmt.Fprintf(os.Stderr, "ldislint: %v\n", err)
			return 1
		}
		data, err := os.ReadFile(exe)
		if err != nil {
			fmt.Fprintf(os.Stderr, "ldislint: %v\n", err)
			return 1
		}
		id := sha256.Sum256(data)
		fmt.Printf("%s version devel buildID=%02x\n", filepath.Base(os.Args[0]), id[:16])
		return 0
	}
	if len(args) == 1 && args[0] == "-flags" {
		fmt.Println("[]")
		return 0
	}
	if len(args) == 1 && strings.HasSuffix(args[0], ".cfg") {
		return unitcheck(args[0])
	}

	fs := flag.NewFlagSet("ldislint", flag.ContinueOnError)
	jsonOut := fs.Bool("json", false, "emit diagnostics as JSON records (one object per line), including suppressed ones")
	staleMode := fs.Bool("stale", false, "report stale suppression directives and unknown //ldis: names instead of analyzer diagnostics")
	fs.Usage = func() {
		fmt.Fprintf(os.Stderr, "usage: ldislint [-json] [-stale] [packages]\n\nAnalyzers:\n")
		for _, a := range suite.All {
			fmt.Fprintf(os.Stderr, "  %-13s %s\n", a.Name, a.Doc)
		}
	}
	if err := fs.Parse(args); err != nil {
		return 1
	}
	patterns := fs.Args()
	if len(patterns) == 0 {
		patterns = []string{"./..."}
	}
	pkgs, err := analysis.Load(".", patterns)
	if err != nil {
		fmt.Fprintf(os.Stderr, "ldislint: %v\n", err)
		return 1
	}
	var diags []analysis.Diagnostic
	if *staleMode {
		diags = analysis.StaleSuppressions(suite.All, pkgs)
	} else {
		diags = analysis.Run(suite.All, pkgs)
	}
	if *jsonOut {
		if err := writeJSON(stdout, diags); err != nil {
			fmt.Fprintf(os.Stderr, "ldislint: %v\n", err)
			return 1
		}
	} else {
		for _, d := range analysis.Unsuppressed(diags) {
			fmt.Fprintln(stdout, d)
		}
	}
	if len(analysis.Unsuppressed(diags)) > 0 {
		return 2
	}
	return 0
}

// jsonDiag is the `-json` record shape: one object per line, stable
// field names, so CI artifacts diff cleanly across runs.
type jsonDiag struct {
	Analyzer   string `json:"analyzer"`
	Pos        string `json:"pos"`
	Message    string `json:"message"`
	Suppressed bool   `json:"suppressed"`
	// SuppressedBy is the position of the justifying //ldis: directive
	// when Suppressed is set.
	SuppressedBy string `json:"suppressed_by,omitempty"`
}

// writeJSON emits every diagnostic — suppressed ones included, which
// is the point: the artifact shows what the directives are hiding —
// as newline-delimited JSON.
func writeJSON(w io.Writer, diags []analysis.Diagnostic) error {
	enc := json.NewEncoder(w)
	for _, d := range diags {
		rec := jsonDiag{
			Analyzer:   d.Analyzer,
			Pos:        d.Pos.String(),
			Message:    d.Message,
			Suppressed: d.Suppressed,
		}
		if d.Suppressed {
			rec.SuppressedBy = d.SupPos.String()
		}
		if err := enc.Encode(rec); err != nil {
			return err
		}
	}
	return nil
}

// vetConfig is the JSON configuration the go command hands a vettool
// for each package (the x/tools unitchecker protocol).
type vetConfig struct {
	ID                        string
	Compiler                  string
	Dir                       string
	ImportPath                string
	GoVersion                 string
	GoFiles                   []string
	ImportMap                 map[string]string
	PackageFile               map[string]string
	VetxOnly                  bool
	VetxOutput                string
	SucceedOnTypecheckFailure bool
}

// unitcheck analyzes one package as directed by a vet config file.
func unitcheck(cfgPath string) int {
	data, err := os.ReadFile(cfgPath)
	if err != nil {
		fmt.Fprintf(os.Stderr, "ldislint: %v\n", err)
		return 1
	}
	var cfg vetConfig
	if err := json.Unmarshal(data, &cfg); err != nil {
		fmt.Fprintf(os.Stderr, "ldislint: parsing %s: %v\n", cfgPath, err)
		return 1
	}

	// The go command requires the facts output file to exist even
	// though this suite's cross-package facts only flow in standalone
	// mode.
	if cfg.VetxOutput != "" {
		if err := os.WriteFile(cfg.VetxOutput, nil, 0o666); err != nil {
			fmt.Fprintf(os.Stderr, "ldislint: %v\n", err)
			return 1
		}
	}
	if cfg.VetxOnly {
		return 0
	}

	fset := token.NewFileSet()
	var files []*ast.File
	for _, name := range cfg.GoFiles {
		f, err := parser.ParseFile(fset, name, nil, parser.ParseComments)
		if err != nil {
			fmt.Fprintf(os.Stderr, "ldislint: %v\n", err)
			return 1
		}
		files = append(files, f)
	}

	lookup := func(path string) (io.ReadCloser, error) {
		if canonical, ok := cfg.ImportMap[path]; ok {
			path = canonical
		}
		file, ok := cfg.PackageFile[path]
		if !ok {
			return nil, fmt.Errorf("no export data for %q", path)
		}
		return os.Open(file)
	}
	info := &types.Info{
		Types:      make(map[ast.Expr]types.TypeAndValue),
		Defs:       make(map[*ast.Ident]types.Object),
		Uses:       make(map[*ast.Ident]types.Object),
		Selections: make(map[*ast.SelectorExpr]*types.Selection),
		Implicits:  make(map[ast.Node]types.Object),
		Scopes:     make(map[ast.Node]*types.Scope),
	}
	tconf := types.Config{
		Importer:  importer.ForCompiler(fset, "gc", lookup),
		GoVersion: cfg.GoVersion,
	}
	tpkg, err := tconf.Check(cfg.ImportPath, fset, files, info)
	if err != nil {
		if cfg.SucceedOnTypecheckFailure {
			return 0
		}
		fmt.Fprintf(os.Stderr, "ldislint: type-checking %s: %v\n", cfg.ImportPath, err)
		return 1
	}

	pkg := &analysis.Package{
		ImportPath: cfg.ImportPath,
		Dir:        cfg.Dir,
		GoFiles:    cfg.GoFiles,
		Fset:       fset,
		Syntax:     files,
		Types:      tpkg,
		Info:       info,
	}
	diags := analysis.Unsuppressed(analysis.RunSingle(suite.All, pkg))
	for _, d := range diags {
		fmt.Fprintln(os.Stderr, d)
	}
	if len(diags) > 0 {
		return 2
	}
	return 0
}
