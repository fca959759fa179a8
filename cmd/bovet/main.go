// Command bovet runs the repo's custom static-analysis suite: the seven
// analyzers that mechanically enforce the simulator's determinism
// (nondeterm), checkpoint completeness (statecodec), zero-alloc hot loops
// (hotalloc), registry discipline (registryinit), serialized-layout
// stability (schemalock), cache-key/warmup-signature completeness
// (sigcomplete) and allow-inventory hygiene (deadallow). See DESIGN.md
// "Static invariants". Cross-package reasoning — taint and allocation
// summaries flowing from dependency to importer — rides the facts layer;
// packages are analyzed in dependency order.
//
// Standalone:
//
//	go run ./cmd/bovet ./...
//	bovet -json ./internal/uncore
//	bovet -analyzers nondeterm,hotalloc ./...
//
// As a vet tool (the go command drives one invocation per package,
// supplies export data and threads fact files between invocations):
//
//	go build -o /tmp/bovet ./cmd/bovet
//	go vet -vettool=/tmp/bovet ./...
//
// Regenerating the schema lock after a reviewed layout change (refuses to
// run when a governed layout changed without its version constant):
//
//	bovet -write-schema-lock   (or `make schema-lock`)
//
// Exit status is 0 when the tree is clean, 2 when any diagnostic survives
// (matching go vet), 1 on operational errors.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"go/token"
	"os"
	"path/filepath"
	"strings"

	"bopsim/internal/analysis"
	"bopsim/internal/analysis/deadallow"
	"bopsim/internal/analysis/hotalloc"
	"bopsim/internal/analysis/nondeterm"
	"bopsim/internal/analysis/registryinit"
	"bopsim/internal/analysis/schemalock"
	"bopsim/internal/analysis/sigcomplete"
	"bopsim/internal/analysis/statecodec"
)

var suite = []*analysis.Analyzer{
	nondeterm.Analyzer,
	statecodec.Analyzer,
	hotalloc.Analyzer,
	registryinit.Analyzer,
	schemalock.Analyzer,
	sigcomplete.Analyzer,
	deadallow.Analyzer,
}

func main() {
	// The go vet protocol probes the tool before handing it a package:
	// -V=full must print a stable identity line (bumped when analyzer
	// behavior changes, so go vet's result cache invalidates), -flags the
	// analyzer flags (none), and then each invocation gets a single *.cfg
	// argument.
	if len(os.Args) == 2 {
		switch {
		case os.Args[1] == "-V=full" || os.Args[1] == "-V":
			fmt.Println("bovet version 2")
			return
		case os.Args[1] == "-flags":
			fmt.Println("[]")
			return
		case strings.HasSuffix(os.Args[1], ".cfg"):
			os.Exit(runVetTool(os.Args[1]))
		}
	}
	os.Exit(runStandalone())
}

func runStandalone() int {
	fs := flag.NewFlagSet("bovet", flag.ExitOnError)
	jsonOut := fs.Bool("json", false, "emit findings as JSON, sorted by (package, file, line, analyzer)")
	list := fs.Bool("list", false, "list the analyzers and exit")
	selected := fs.String("analyzers", "", "comma-separated analyzer names to run (default: all)")
	writeLock := fs.Bool("write-schema-lock", false, "regenerate internal/analysis/schemalock/schema.lock and exit")
	fs.Usage = func() {
		fmt.Fprintf(fs.Output(), "usage: bovet [-json] [-analyzers a,b] [packages]\n\nAnalyzers:\n")
		for _, a := range suite {
			fmt.Fprintf(fs.Output(), "  %-12s %s\n", a.Name, a.Doc)
		}
		fs.PrintDefaults()
	}
	fs.Parse(os.Args[1:])
	if *list {
		for _, a := range suite {
			fmt.Printf("%-12s %s\n", a.Name, a.Doc)
		}
		return 0
	}
	active, err := selectAnalyzers(*selected)
	if err != nil {
		fmt.Fprintln(os.Stderr, "bovet:", err)
		return 1
	}
	patterns := fs.Args()
	if len(patterns) == 0 {
		patterns = []string{"./..."}
	}
	if *writeLock {
		return writeSchemaLock(patterns)
	}

	fset := token.NewFileSet()
	pkgs, err := analysis.Load(fset, "", patterns)
	if err != nil {
		fmt.Fprintln(os.Stderr, "bovet:", err)
		return 1
	}
	runner := &analysis.Runner{Suite: active, Known: suite}
	findings, err := runner.Run(pkgs)
	if err != nil {
		fmt.Fprintln(os.Stderr, "bovet:", err)
		return 1
	}
	if *jsonOut {
		enc := json.NewEncoder(os.Stdout)
		enc.SetIndent("", "\t")
		if err := enc.Encode(findingsJSON(findings)); err != nil {
			fmt.Fprintln(os.Stderr, "bovet:", err)
			return 1
		}
	} else {
		for _, f := range findings {
			fmt.Fprintln(os.Stderr, f)
		}
	}
	if len(findings) > 0 {
		return 2
	}
	return 0
}

// selectAnalyzers resolves the -analyzers flag against the suite. An
// unknown name is an operational error naming the available set — a typo
// must not silently run nothing (or everything).
func selectAnalyzers(names string) ([]*analysis.Analyzer, error) {
	if names == "" {
		return suite, nil
	}
	byName := make(map[string]*analysis.Analyzer, len(suite))
	available := make([]string, 0, len(suite))
	for _, a := range suite {
		byName[a.Name] = a
		available = append(available, a.Name)
	}
	var active []*analysis.Analyzer
	seen := make(map[string]bool)
	for _, name := range strings.Split(names, ",") {
		name = strings.TrimSpace(name)
		if name == "" {
			continue
		}
		a, ok := byName[name]
		if !ok {
			return nil, fmt.Errorf("unknown analyzer %q (available: %s)", name, strings.Join(available, ", "))
		}
		if !seen[name] {
			seen[name] = true
			active = append(active, a)
		}
	}
	if len(active) == 0 {
		return nil, fmt.Errorf("-analyzers selected nothing (available: %s)", strings.Join(available, ", "))
	}
	return active, nil
}

// writeSchemaLock regenerates the committed schema lock from the current
// tree: it derives every governed layout (running the schemalock closure
// checks on the way, so an unlockable cross-package reference fails
// generation), refuses to proceed when a version domain's sections changed
// without its version constant, and writes the file the analyzer embeds.
func writeSchemaLock(patterns []string) int {
	fset := token.NewFileSet()
	pkgs, err := analysis.Load(fset, "", patterns)
	if err != nil {
		fmt.Fprintln(os.Stderr, "bovet:", err)
		return 1
	}
	collector := schemalock.NewCollector()
	runner := &analysis.Runner{Suite: []*analysis.Analyzer{collector.Analyzer()}, Known: suite}
	findings, err := runner.Run(pkgs)
	if err != nil {
		fmt.Fprintln(os.Stderr, "bovet:", err)
		return 1
	}
	if len(findings) > 0 {
		for _, f := range findings {
			fmt.Fprintln(os.Stderr, f)
		}
		fmt.Fprintln(os.Stderr, "bovet: schema derivation is incomplete; fix the findings above before regenerating")
		return 1
	}

	lockPath := ""
	for _, pkg := range pkgs {
		if pkg.PkgPath == "bopsim/internal/analysis/schemalock" {
			lockPath = filepath.Join(pkg.Dir, "schema.lock")
		}
	}
	if lockPath == "" {
		fmt.Fprintln(os.Stderr, "bovet: -write-schema-lock needs the schemalock package in the pattern set (run it as `bovet -write-schema-lock ./...` from the module root)")
		return 1
	}
	old, _ := os.ReadFile(lockPath)
	if err := collector.CheckBump(old); err != nil {
		fmt.Fprintln(os.Stderr, "bovet:", err)
		return 1
	}
	data := collector.Format()
	if string(old) == string(data) {
		fmt.Printf("bovet: %s is up to date (%d sections)\n", lockPath, len(collector.Sections))
		return 0
	}
	if err := os.WriteFile(lockPath, data, 0o644); err != nil {
		fmt.Fprintln(os.Stderr, "bovet:", err)
		return 1
	}
	fmt.Printf("bovet: wrote %s (%d sections); rebuild to embed it\n", lockPath, len(collector.Sections))
	return 0
}

type findingJSON struct {
	Analyzer string `json:"analyzer"`
	Package  string `json:"package"`
	Position string `json:"position"`
	Message  string `json:"message"`
}

func findingsJSON(fs []analysis.Finding) []findingJSON {
	out := make([]findingJSON, 0, len(fs))
	for _, f := range fs {
		out = append(out, findingJSON{Analyzer: f.Analyzer, Package: f.Pkg, Position: f.Posn.String(), Message: f.Message})
	}
	return out
}
