// Command perfbench is the repository benchmark. It runs one named
// workload at a seed for a fixed host-time budget, checks the simulated
// outputs, and prints one JSON result line: the end-to-end metrics with
// -trace 0, the per-layer metrics of a separately traced run with -trace 1.
// README.md in this directory defines every workload and metric.
//
// Run it through run.py from the repository root, which builds this module
// first:
//
//	python3 perfbench/run.py --workload gcc-bo --seed 1 --seconds 25 --trace 0
package main

import (
	"bufio"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"io/fs"
	"os"
	"path/filepath"
	"runtime"
	"runtime/debug"
	"sort"
	"strings"
	"time"
)

// minOps is the fewest operations a run measures even when one operation
// outlasts the time budget, so every median has at least this many samples.
const minOps = 3

func main() {
	workload := flag.String("workload", "", "workload name (gcc-bo, pchase-duel, mix4-adapt, sweep-warm)")
	seed := flag.Uint64("seed", defaultSeed, "input seed")
	seconds := flag.Int("seconds", 10, "host seconds to measure")
	traced := flag.Int("trace", 0, "0: end-to-end metrics; 1: per-layer metrics from a traced run")
	out := flag.String("out", filepath.Join(".bench_build", "perfbench"), "scratch directory for caches and profiles")
	flag.Parse()
	if *seconds < 1 || (*traced != 0 && *traced != 1) {
		fmt.Fprintln(os.Stderr, "perfbench: -seconds must be >= 1 and -trace 0 or 1")
		os.Exit(2)
	}
	w, ok := workloads[*workload]
	if !ok {
		fmt.Fprintf(os.Stderr, "perfbench: unknown workload %q (want %s)\n", *workload, strings.Join(workloadNames(), ", "))
		os.Exit(2)
	}
	if err := os.MkdirAll(*out, 0o755); err != nil {
		fmt.Fprintf(os.Stderr, "perfbench: %v\n", err)
		os.Exit(2)
	}

	ctx := machineContext(*seed)
	ctx["workload"] = w.name
	ctx["trace"] = *traced
	line, err := json.Marshal(map[string]any{"context": ctx})
	if err != nil {
		fmt.Fprintf(os.Stderr, "perfbench: %v\n", err)
		os.Exit(2)
	}
	fmt.Println(string(line))

	run := runConfig{seed: *seed, budget: time.Duration(*seconds) * time.Second, out: *out}
	var c checker
	var metrics map[string]metric
	if *traced == 1 {
		metrics = runTraced(w, run, &c)
	} else {
		metrics = runUntraced(w, run, &c)
	}
	line, err = json.Marshal(result{Correct: c.failed == 0, Attempted: c.attempted, Failed: c.failed, Metrics: metrics})
	if err != nil {
		fmt.Fprintf(os.Stderr, "perfbench: %v\n", err)
		os.Exit(2)
	}
	fmt.Println(string(line))
}

// runConfig is what every workload runner receives from the command line.
type runConfig struct {
	seed   uint64
	budget time.Duration
	out    string
}

type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

type result struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

// checker counts operations and the ones whose output check failed. A
// failure is reported on stderr with its reason; it never skips the
// operation's count.
type checker struct {
	attempted, failed int
}

// op records one attempted operation; problems lists every check it failed.
func (c *checker) op(label string, problems []string) {
	c.attempted++
	if len(problems) == 0 {
		return
	}
	c.failed++
	for _, p := range problems {
		fmt.Fprintf(os.Stderr, "perfbench: %s: %s\n", label, p)
	}
}

// outputCheck holds the reference bytes of one repeated output: every
// repeat in a run must match the first, and at the default seed the first
// must match the pinned SHA-256.
type outputCheck struct {
	pin   string
	seed  uint64
	first []byte
}

func (oc *outputCheck) check(got []byte) (problem string) {
	if oc.first == nil {
		oc.first = got
		if oc.seed == defaultSeed {
			if sum := sha256Hex(got); sum != oc.pin {
				return fmt.Sprintf("output SHA-256 %s differs from the pinned %s", sum, oc.pin)
			}
		}
		return ""
	}
	if string(got) != string(oc.first) {
		return "output differs from the first repeat at the same seed"
	}
	return ""
}

func sha256Hex(b []byte) string {
	s := sha256.Sum256(b)
	return hex.EncodeToString(s[:])
}

func median(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	n := len(s)
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}

// machineContext records what a result must be compared alongside: the
// source revision, seed and host.
func machineContext(seed uint64) map[string]any {
	commit := "unknown"
	if bi, ok := debug.ReadBuildInfo(); ok {
		for _, s := range bi.Settings {
			if s.Key == "vcs.revision" {
				commit = s.Value
			}
		}
	}
	return map[string]any{
		"commit":     commit,
		"source_sha": sourceSHA("."),
		"seed":       seed,
		"go_version": runtime.Version(),
		"goos":       runtime.GOOS,
		"goarch":     runtime.GOARCH,
		"nproc":      runtime.NumCPU(),
		"gomaxprocs": runtime.GOMAXPROCS(0),
		"cpu_model":  cpuModel(),
	}
}

// sourceSHA hashes every go.mod and .go file under root (skipping hidden
// directories such as build output), so runs from checkouts without git
// metadata still name the exact source they measured.
func sourceSHA(root string) string {
	h := sha256.New()
	err := filepath.WalkDir(root, func(path string, d fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if d.IsDir() {
			if path != root && strings.HasPrefix(d.Name(), ".") {
				return filepath.SkipDir
			}
			return nil
		}
		if d.Name() != "go.mod" && !strings.HasSuffix(d.Name(), ".go") {
			return nil
		}
		f, err := os.Open(path)
		if err != nil {
			return err
		}
		defer f.Close()
		fmt.Fprintf(h, "%s\x00", filepath.ToSlash(path))
		_, err = io.Copy(h, f)
		return err
	})
	if err != nil {
		return "unknown"
	}
	return hex.EncodeToString(h.Sum(nil))
}

func cpuModel() string {
	f, err := os.Open("/proc/cpuinfo")
	if err != nil {
		return "unknown"
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		if k, v, ok := strings.Cut(sc.Text(), ":"); ok && strings.TrimSpace(k) == "model name" {
			return strings.TrimSpace(v)
		}
	}
	return "unknown"
}
