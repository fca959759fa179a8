package main

import (
	"encoding/json"
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

	"bopsim/internal/analysis"
)

// The go vet driver protocol (x/tools' "unitchecker" protocol): the go
// command invokes the tool once per package with a JSON config file naming
// the package's sources, the export data of every dependency, and — via
// PackageVetx — the fact files earlier invocations wrote for those
// dependencies. The tool must write this package's facts to VetxOutput
// (the file must exist even when empty, or the build system errors), and
// exit status 2 means "diagnostics found". The standalone runner threads
// the same facts in memory, so cross-package taint works identically under
// `go vet -vettool=` and `bovet ./...`; the go command's build cache keeps
// the fact files between vet runs.

// vetConfig mirrors the subset of the config the go command writes that
// bovet consumes.
type vetConfig struct {
	ID                        string
	Dir                       string
	ImportPath                string
	GoFiles                   []string
	ImportMap                 map[string]string
	PackageFile               map[string]string
	PackageVetx               map[string]string
	VetxOnly                  bool
	VetxOutput                string
	SucceedOnTypecheckFailure bool
}

func runVetTool(cfgPath string) int {
	data, err := os.ReadFile(cfgPath)
	if err != nil {
		fmt.Fprintln(os.Stderr, "bovet:", err)
		return 1
	}
	var cfg vetConfig
	if err := json.Unmarshal(data, &cfg); err != nil {
		fmt.Fprintf(os.Stderr, "bovet: parsing %s: %v\n", cfgPath, err)
		return 1
	}
	writeVetx := func(blob []byte) bool {
		if cfg.VetxOutput == "" {
			return true
		}
		if err := os.WriteFile(cfg.VetxOutput, blob, 0o666); err != nil {
			fmt.Fprintln(os.Stderr, "bovet:", err)
			return false
		}
		return true
	}
	// Facts are only computed for this module's packages; for anything else
	// (the standard library, should the driver ask) an empty fact file
	// satisfies the protocol without running anything.
	if !analysis.ModulePackage(cfg.ImportPath) {
		if !writeVetx(nil) {
			return 1
		}
		return 0
	}

	fset := token.NewFileSet()
	var files []*ast.File
	for _, name := range cfg.GoFiles {
		// The go command also dispatches test variants of each package.
		// bovet's invariants govern shipped simulator code — tests probe the
		// registries and clocks deliberately — so test files are skipped,
		// matching what standalone `bovet ./...` analyzes.
		if strings.HasSuffix(name, "_test.go") {
			continue
		}
		if !filepath.IsAbs(name) {
			name = filepath.Join(cfg.Dir, name)
		}
		f, err := parser.ParseFile(fset, name, nil, parser.ParseComments|parser.SkipObjectResolution)
		if err != nil {
			fmt.Fprintln(os.Stderr, "bovet:", err)
			return 1
		}
		files = append(files, f)
	}
	if len(files) == 0 {
		if !writeVetx(nil) {
			return 1 // external _test package: nothing but test files
		}
		return 0
	}

	imp := importer.ForCompiler(fset, "gc", func(path string) (io.ReadCloser, error) {
		if canonical, ok := cfg.ImportMap[path]; ok {
			path = canonical
		}
		file, ok := cfg.PackageFile[path]
		if !ok {
			return nil, fmt.Errorf("no export data for %q", path)
		}
		return os.Open(file)
	})
	info := analysis.NewInfo()
	tconf := types.Config{Importer: imp}
	tpkg, err := tconf.Check(cfg.ImportPath, fset, files, info)
	if err != nil {
		if cfg.SucceedOnTypecheckFailure {
			return 0
		}
		fmt.Fprintf(os.Stderr, "bovet: type-checking %s: %v\n", cfg.ImportPath, err)
		return 1
	}

	runner := &analysis.Runner{Suite: suite, Known: suite}
	// Seed dependency facts from the files earlier invocations wrote. The
	// driver lists every dependency; only module packages ever have
	// non-empty blobs.
	for dep, vetx := range cfg.PackageVetx {
		if canonical, ok := cfg.ImportMap[dep]; ok {
			dep = canonical
		}
		if !analysis.ModulePackage(dep) {
			continue
		}
		blob, err := os.ReadFile(vetx)
		if err != nil || len(blob) == 0 {
			continue
		}
		if err := runner.ImportFacts(dep, blob); err != nil {
			fmt.Fprintf(os.Stderr, "bovet: reading facts of %s: %v\n", dep, err)
			return 1
		}
	}

	pkg := &analysis.Package{
		PkgPath: cfg.ImportPath,
		Dir:     cfg.Dir,
		Fset:    fset,
		Files:   files,
		Types:   tpkg,
		Info:    info,
		// A VetxOnly invocation is the driver's dependency pass: facts
		// wanted, diagnostics not. DepOnly makes the runner behave exactly
		// like it does for dependencies of a standalone run.
		DepOnly: cfg.VetxOnly,
	}
	findings, err := runner.Run([]*analysis.Package{pkg})
	if err != nil {
		fmt.Fprintln(os.Stderr, "bovet:", err)
		return 1
	}
	blob, err := runner.ExportedFacts(cfg.ImportPath)
	if err != nil {
		fmt.Fprintln(os.Stderr, "bovet:", err)
		return 1
	}
	if !writeVetx(blob) {
		return 1
	}
	for _, f := range findings {
		fmt.Fprintf(os.Stderr, "%s: %s\n", f.Posn, f.Message)
	}
	if len(findings) > 0 {
		return 2
	}
	return 0
}
