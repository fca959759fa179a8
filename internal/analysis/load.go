package analysis

import (
	"bytes"
	"encoding/json"
	"fmt"
	"go/ast"
	"go/importer"
	"go/parser"
	"go/token"
	"go/types"
	"io"
	"os"
	"os/exec"
	"path/filepath"
	"strings"
)

// Package loading. bovet deliberately depends only on the standard library,
// so instead of golang.org/x/tools/go/packages it drives `go list -export`
// directly: one invocation enumerates the target packages and compiles
// export data for every dependency, then each target is parsed and
// type-checked against that export data (the same mechanism go/packages
// uses underneath). Works fully offline — the module has no third-party
// dependencies to fetch.
//
// For the facts layer, module dependencies of the targets are loaded too
// (parsed and type-checked from source, marked DepOnly): their facts must
// exist before an importer is analyzed, and compiler export data carries
// types but not the syntax facts are computed from. `go list -deps` emits
// dependencies before importers, so the returned slice is already in the
// dependency order Runner.Run requires.

// listedPackage is the subset of `go list -json` output the loader needs.
type listedPackage struct {
	ImportPath string
	Dir        string
	Export     string
	GoFiles    []string
	CgoFiles   []string
	Standard   bool
	DepOnly    bool
	Error      *struct{ Err string }
}

// Load lists patterns with the go command, type-checks every matched
// package plus the module dependencies facts flow through, and returns
// them in dependency order, ready for Run. Non-module dependencies
// (the standard library) are resolved from compiler export data only.
func Load(fset *token.FileSet, dir string, patterns []string) ([]*Package, error) {
	listed, err := goList(dir, patterns)
	if err != nil {
		return nil, err
	}
	exports := make(map[string]string, len(listed))
	var wanted []*listedPackage
	for _, lp := range listed {
		if lp.Export != "" {
			exports[lp.ImportPath] = lp.Export
		}
		if lp.DepOnly && (lp.Standard || !ModulePackage(lp.ImportPath)) {
			continue // facts are only computed for module packages
		}
		if lp.Error != nil {
			if lp.DepOnly {
				continue
			}
			return nil, fmt.Errorf("loading %s: %s", lp.ImportPath, lp.Error.Err)
		}
		wanted = append(wanted, lp)
	}

	imp := importer.ForCompiler(fset, "gc", func(path string) (io.ReadCloser, error) {
		file, ok := exports[path]
		if !ok {
			return nil, fmt.Errorf("no export data for %q", path)
		}
		return os.Open(file)
	})

	var pkgs []*Package
	for _, lp := range wanted {
		pkg, err := typeCheck(fset, imp, lp)
		if err != nil {
			return nil, err
		}
		pkgs = append(pkgs, pkg)
	}
	return pkgs, nil
}

func goList(dir string, patterns []string) ([]*listedPackage, error) {
	args := append([]string{"list", "-e", "-deps", "-export", "-json"}, patterns...)
	cmd := exec.Command("go", args...)
	cmd.Dir = dir
	var stdout, stderr bytes.Buffer
	cmd.Stdout = &stdout
	cmd.Stderr = &stderr
	if err := cmd.Run(); err != nil {
		return nil, fmt.Errorf("go list %s: %v\n%s", strings.Join(patterns, " "), err, stderr.String())
	}
	var out []*listedPackage
	dec := json.NewDecoder(&stdout)
	for dec.More() {
		lp := new(listedPackage)
		if err := dec.Decode(lp); err != nil {
			return nil, fmt.Errorf("decoding go list output: %v", err)
		}
		out = append(out, lp)
	}
	return out, nil
}

func typeCheck(fset *token.FileSet, imp types.Importer, lp *listedPackage) (*Package, error) {
	if len(lp.CgoFiles) > 0 {
		return nil, fmt.Errorf("%s: cgo packages are not supported", lp.ImportPath)
	}
	var files []*ast.File
	for _, name := range lp.GoFiles {
		path := filepath.Join(lp.Dir, name)
		f, err := parser.ParseFile(fset, path, nil, parser.ParseComments|parser.SkipObjectResolution)
		if err != nil {
			return nil, fmt.Errorf("%s: %v", lp.ImportPath, err)
		}
		files = append(files, f)
	}
	info := NewInfo()
	conf := types.Config{Importer: imp}
	tpkg, err := conf.Check(lp.ImportPath, fset, files, info)
	if err != nil {
		return nil, fmt.Errorf("type-checking %s: %v", lp.ImportPath, err)
	}
	return &Package{
		PkgPath: lp.ImportPath,
		Dir:     lp.Dir,
		Fset:    fset,
		Files:   files,
		Types:   tpkg,
		Info:    info,
		DepOnly: lp.DepOnly,
	}, nil
}

// NewInfo returns a types.Info with every map the analyzers consult
// allocated. Shared with the vettool driver and analysistest.
func NewInfo() *types.Info {
	return &types.Info{
		Types:      make(map[ast.Expr]types.TypeAndValue),
		Defs:       make(map[*ast.Ident]types.Object),
		Uses:       make(map[*ast.Ident]types.Object),
		Implicits:  make(map[ast.Node]types.Object),
		Selections: make(map[*ast.SelectorExpr]*types.Selection),
		Scopes:     make(map[ast.Node]*types.Scope),
		Instances:  make(map[*ast.Ident]types.Instance),
	}
}
