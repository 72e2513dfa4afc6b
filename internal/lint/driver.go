package lint

import (
	"bytes"
	"encoding/json"
	"fmt"
	"go/ast"
	"go/importer"
	"go/parser"
	"go/token"
	"go/types"
	"os/exec"
	"path/filepath"
	"sort"
	"strings"
)

// The driver: load packages, type-check them with the standard
// library's source importer (no module proxy needed), and run the
// analyzer suite. cmd/simlint uses this for standalone `simlint ./...`
// runs; the tests use CheckPackage directly on testdata.

// Package is one loaded, type-checked package ready for analysis.
type Package struct {
	Path  string
	Fset  *token.FileSet
	Files []*ast.File
	Types *types.Package
	Info  *types.Info
}

// CheckPackage runs the analyzers over one package: it builds the
// //lint:allow index (reporting malformed directives as findings),
// runs each analyzer, drops suppressed findings, reports the allows of
// those analyzers that suppressed nothing, and returns the findings
// sorted by position.
func CheckPackage(pkg *Package, analyzers []*Analyzer) []Diagnostic {
	var diags []Diagnostic
	report := func(d Diagnostic) { diags = append(diags, d) }
	ix := buildAllowIndex(pkg.Fset, pkg.Files, report)
	for _, a := range analyzers {
		pass := &Pass{
			Analyzer:      a,
			Fset:          pkg.Fset,
			Files:         pkg.Files,
			Pkg:           pkg.Types,
			TypesInfo:     pkg.Info,
			PkgPath:       basePkgPath(pkg.Path),
			Deterministic: IsDeterministic(pkg.Path),
		}
		pass.Report = func(d Diagnostic) {
			if !ix.suppresses(d) {
				diags = append(diags, d)
			}
		}
		if err := a.Run(pass); err != nil {
			diags = append(diags, Diagnostic{
				Analyzer: a.Name,
				Message:  fmt.Sprintf("internal analyzer error: %v", err),
			})
		}
	}
	ix.reportStale(analyzers, report)
	sortDiagnostics(diags)
	return diags
}

func sortDiagnostics(diags []Diagnostic) {
	sort.Slice(diags, func(i, j int) bool {
		a, b := diags[i], diags[j]
		if a.Pos.Filename != b.Pos.Filename {
			return a.Pos.Filename < b.Pos.Filename
		}
		if a.Pos.Line != b.Pos.Line {
			return a.Pos.Line < b.Pos.Line
		}
		if a.Pos.Column != b.Pos.Column {
			return a.Pos.Column < b.Pos.Column
		}
		return a.Analyzer < b.Analyzer
	})
}

// listedPackage is the subset of `go list -json` output the loader
// needs.
type listedPackage struct {
	Dir        string
	ImportPath string
	GoFiles    []string
}

// Load enumerates the packages matching patterns (via `go list`, so it
// follows the module's own view of the tree — testdata and vendored
// files are excluded exactly as the build excludes them), parses their
// non-test files with comments, and type-checks them. Dependencies are
// resolved by the standard library's source importer, so the loader
// needs no pre-built export data and no network.
func Load(dir string, patterns []string) ([]*Package, error) {
	args := append([]string{"list", "-json"}, patterns...)
	cmd := exec.Command("go", args...)
	cmd.Dir = dir
	var stdout, stderr bytes.Buffer
	cmd.Stdout = &stdout
	cmd.Stderr = &stderr
	if err := cmd.Run(); err != nil {
		return nil, fmt.Errorf("go list %s: %v\n%s", strings.Join(patterns, " "), err, stderr.String())
	}
	var listed []listedPackage
	dec := json.NewDecoder(&stdout)
	for dec.More() {
		var p listedPackage
		if err := dec.Decode(&p); err != nil {
			return nil, fmt.Errorf("decoding go list output: %v", err)
		}
		listed = append(listed, p)
	}

	fset := token.NewFileSet()
	imp := importer.ForCompiler(fset, "source", nil)
	var pkgs []*Package
	for _, lp := range listed {
		if len(lp.GoFiles) == 0 {
			continue
		}
		pkg, err := typeCheck(fset, imp, lp.ImportPath, lp.Dir, lp.GoFiles)
		if err != nil {
			return nil, err
		}
		pkgs = append(pkgs, pkg)
	}
	return pkgs, nil
}

// typeCheck parses and type-checks one package's files.
func typeCheck(fset *token.FileSet, imp types.Importer, path, dir string, goFiles []string) (*Package, error) {
	var files []*ast.File
	for _, name := range goFiles {
		f, err := parser.ParseFile(fset, filepath.Join(dir, name), nil, parser.ParseComments|parser.SkipObjectResolution)
		if err != nil {
			return nil, fmt.Errorf("parsing %s: %v", name, err)
		}
		files = append(files, f)
	}
	info := &types.Info{
		Types: make(map[ast.Expr]types.TypeAndValue),
		Uses:  make(map[*ast.Ident]types.Object),
		Defs:  make(map[*ast.Ident]types.Object),
	}
	conf := types.Config{Importer: imp}
	tpkg, err := conf.Check(path, fset, files, info)
	if err != nil {
		return nil, fmt.Errorf("type-checking %s: %v", path, err)
	}
	return &Package{Path: path, Fset: fset, Files: files, Types: tpkg, Info: info}, nil
}

// Run loads the packages matching patterns under dir and returns all
// findings from the given analyzers (pass nil for the full suite).
func Run(dir string, patterns []string, analyzers []*Analyzer) ([]Diagnostic, error) {
	if analyzers == nil {
		analyzers = Analyzers()
	}
	pkgs, err := Load(dir, patterns)
	if err != nil {
		return nil, err
	}
	var diags []Diagnostic
	for _, pkg := range pkgs {
		diags = append(diags, CheckPackage(pkg, analyzers)...)
	}
	return diags, nil
}
