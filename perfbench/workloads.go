package main

import (
	"context"
	"encoding/json"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"runtime"
	"runtime/debug"
	"sort"
	"strings"
	"sync"
	"time"

	"bopsim/internal/engine"
	"bopsim/internal/experiments"
	"bopsim/internal/mem"
	"bopsim/internal/prefetch"
	"bopsim/internal/trace"
)

// defaultSeed is the seed whose outputs are pinned by SHA-256 below.
const defaultSeed = 1

// Run lengths. Each single simulation takes a few tenths of a second on a
// 2-CPU host, so a 10-second run takes medians over tens of operations.
const (
	gccInstructions    = 1_000_000
	pchaseInstructions = 400_000
	mixInstructions    = 100_000

	// sweep-warm: every job warms up for sweepWarmup instructions (shared
	// per workload through one checkpoint) and measures sweepInstructions.
	sweepWarmup       = 60_000
	sweepInstructions = 30_000
	sweepWorkers      = 2

	// legWarmup is the warmup length of the warmup/checkpoint/restore leg
	// the traced run times on every workload's machine.
	legWarmup = 100_000
)

// sweepWorkloads are sweep-warm's core-0 rows: a compute-bound, a
// latency-bound and a streaming benchmark, so the prefetcher columns
// differ per row.
var sweepWorkloads = []string{"403.gcc", "429.mcf", "462.libquantum"}

// workload is one benchmark workload. machine returns the options of the
// simulation the workload times (single runs) or traces as its
// representative job (sweep-warm).
type workload struct {
	name    string
	sweep   bool
	machine func(seed uint64) engine.Options
	// pin is the SHA-256 of the workload's checked output at defaultSeed:
	// the Result JSON for single runs, the rendered zoo table for the
	// sweep. A model change that moves it must re-pin it deliberately.
	pin string
}

var workloads = map[string]workload{
	"gcc-bo": {
		name: "gcc-bo",
		machine: func(seed uint64) engine.Options {
			return singleOptions("403.gcc", 1, "bo", gccInstructions, seed)
		},
		pin: "1ebc4e9bb13025514fea733c7683e30b12f15e028b0307a028e9a44fc4b65d1d",
	},
	"pchase-duel": {
		name: "pchase-duel",
		machine: func(seed uint64) engine.Options {
			return singleOptions("pchase", 1, "duel", pchaseInstructions, seed)
		},
		pin: "6f012a31e986aa22b4c7809a7e61be51cb800d7b346987bb23e19236a2b0ef7a",
	},
	"mix4-adapt": {
		name: "mix4-adapt",
		machine: func(seed uint64) engine.Options {
			return singleOptions("403.gcc;429.mcf;stream;gups", 4, "adapt", mixInstructions, seed)
		},
		pin: "94b3ec08f5a7a491853a901b4f221b8e3aaf1083a22aac8889922234e71e8946",
	},
	"sweep-warm": {
		name:  "sweep-warm",
		sweep: true,
		machine: func(seed uint64) engine.Options {
			return singleOptions(sweepWorkloads[0], 1, "bo", sweepInstructions, seed)
		},
		pin: "42331f5be66a9b5f6ba7ee5d8da1eee643b794504a0d01e399dc96fe2c1c1f6c",
	},
}

func workloadNames() []string {
	var names []string
	for n := range workloads {
		names = append(names, n)
	}
	sort.Strings(names)
	return names
}

// singleOptions builds a 4 KB-page run of the ';'-separated per-core
// workload list with the named L2 prefetcher.
func singleOptions(specs string, cores int, l2 string, instructions, seed uint64) engine.Options {
	o := engine.DefaultOptions("")
	ws, err := trace.ParseSpecList(specs)
	if err != nil {
		panic(err) // the lists above are constants
	}
	o.Workloads = ws
	o.Cores = cores
	o.Page = mem.Page4K
	o.L2PF = prefetch.Spec{Name: l2}
	o.Instructions = instructions
	o.Seed = seed
	return o
}

// setupReps is how many times each operation builds its simulation: the
// last build is run, and every build is a set-up sample, because a build
// takes milliseconds and its median needs more samples than there are runs.
const setupReps = 5

// runSample is one untraced operation: setupReps engine.New calls, then
// Simulation.Run on the last simulation built.
type runSample struct {
	setups               []time.Duration
	run                  time.Duration
	setupAlloc, runAlloc uint64 // Go heap bytes allocated in the last New and in Run
	retained             uint64 // live heap after a forced GC, simulation reachable
	res                  engine.Result
	resJSON              []byte
}

// timedRun builds o setupReps times and runs the last build, timing New
// and Run separately.
func timedRun(o engine.Options) (runSample, error) {
	var smp runSample
	var m runtime.MemStats
	var s *engine.Simulation
	var a0 uint64
	for i := 0; i < setupReps; i++ {
		s = nil
		// Every build starts like a fresh process: collected, with the freed
		// memory returned to the OS. Otherwise whether New faults its pages
		// in depends on how far the background scavenger got.
		debug.FreeOSMemory()
		runtime.ReadMemStats(&m)
		a0 = m.TotalAlloc
		t0 := time.Now()
		var err error
		s, err = engine.New(o)
		smp.setups = append(smp.setups, time.Since(t0))
		if err != nil {
			return smp, err
		}
	}
	runtime.ReadMemStats(&m)
	a1 := m.TotalAlloc
	t1 := time.Now()
	res, err := s.Run(context.Background())
	smp.run = time.Since(t1)
	if err != nil {
		return smp, err
	}
	runtime.ReadMemStats(&m)
	smp.setupAlloc, smp.runAlloc = a1-a0, m.TotalAlloc-a1
	runtime.GC()
	runtime.ReadMemStats(&m)
	smp.retained = m.HeapAlloc
	runtime.KeepAlive(s)
	smp.res = res
	smp.resJSON, err = json.Marshal(res)
	return smp, err
}

func runUntraced(w workload, rc runConfig, c *checker) map[string]metric {
	if w.sweep {
		return runSweepUntraced(w, rc, c)
	}
	o := w.machine(rc.seed)
	oc := outputCheck{pin: w.pin, seed: rc.seed}
	var setup, rate, runS, alloc, retained []float64
	var ipc float64
	sp := newSpeedometer()
	deadline := time.Now().Add(rc.budget)
	for i := 0; i < minOps || time.Now().Before(deadline); i++ {
		smp, err := timedRun(o)
		if err != nil {
			c.op(w.name, []string{err.Error()})
			break // a failing run fails every repeat: stop, the result is already incorrect
		}
		k := sp.scale()
		var problems []string
		if p := oc.check(smp.resJSON); p != "" {
			problems = append(problems, p)
		}
		c.op(w.name, problems)
		run := smp.run.Seconds() * k
		for _, d := range smp.setups {
			setup = append(setup, d.Seconds()*k)
		}
		runS = append(runS, run)
		rate = append(rate, float64(smp.res.Instructions)/run)
		alloc = append(alloc, float64(smp.runAlloc)/(float64(smp.res.Instructions)/1000))
		retained = append(retained, float64(smp.retained)/1e6)
		ipc = smp.res.IPC
	}
	if len(runS) == 0 {
		return endToEnd(0, 0, 0, 0, 0, 0)
	}
	return endToEnd(median(rate), 1/median(runS), median(setup), median(alloc), median(retained), ipc)
}

func endToEnd(instrPerS, simsPerS, setupS, allocPerKinstr, retainedMB, ipc float64) map[string]metric {
	return map[string]metric{
		"sim_instr_per_s":        {instrPerS, "instr/s"},
		"sims_per_s":             {simsPerS, "sims/s"},
		"setup_s":                {setupS, "s"},
		"alloc_bytes_per_kinstr": {allocPerKinstr, "B/kinstr"},
		"retained_heap_mb":       {retainedMB, "MB"},
		"ipc":                    {ipc, "instr/cycle"},
	}
}

// sweepSetup builds sweep-warm's Runner over a fresh, empty cache directory
// and its job list: the jobs Runner.Zoo enumerates, so that rendering the
// zoo table afterwards is served entirely from the Runner's cache. The
// returned duration times the set-up alone.
func sweepSetup(dir string, seed uint64) (*experiments.Runner, []engine.Options, time.Duration, error) {
	if err := os.RemoveAll(dir); err != nil {
		return nil, nil, 0, err
	}
	debug.FreeOSMemory() // as before engine.New in timedRun
	t0 := time.Now()
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, nil, 0, err
	}
	cc := experiments.CoreConfig{Cores: 1, Page: mem.Page4K}
	r := experiments.NewRunner(sweepInstructions, []experiments.CoreConfig{cc})
	r.Seed = seed
	r.Workers = sweepWorkers
	r.Warmup = sweepWarmup
	r.Checkpoint = true
	r.CacheDir = dir
	r.Benchmarks = nil
	for _, name := range sweepWorkloads {
		r.Benchmarks = append(r.Benchmarks, trace.Spec{Name: name})
	}
	var jobs []engine.Options
	for _, l2 := range prefetch.L2Names() {
		for _, wl := range r.Benchmarks {
			base := singleOptions(wl.Name, cc.Cores, "nextline", sweepInstructions, seed)
			base.Warmup = sweepWarmup
			variant := base
			variant.L2PF = prefetch.Spec{Name: l2}
			jobs = append(jobs, base, variant)
		}
	}
	return r, jobs, time.Since(t0), nil
}

// sweepSample is one sweep-warm operation: RunJobs over a fresh cache.
type sweepSample struct {
	setup, run   time.Duration
	alloc        uint64
	retained     uint64
	executed     uint64
	instructions uint64  // measured-region core-0 instructions over all jobs
	gmIPC        float64 // geometric mean IPC over the distinct jobs
	uniqueJobs   int
	warmupGroups int
	table        []byte
	completions  []time.Duration // Progress call times since RunJobs began
}

// sweepOp runs one sweep. With progress set, each job completion's time is
// recorded through Runner.Progress.
func sweepOp(rc runConfig, progress bool) (sweepSample, error) {
	var smp sweepSample
	dir := filepath.Join(rc.out, "sweep-cache")
	defer os.RemoveAll(dir)
	r, jobs, setup, err := sweepSetup(dir, rc.seed)
	if err != nil {
		return smp, err
	}
	smp.setup = setup
	var start time.Time
	var mu sync.Mutex
	if progress {
		// Progress runs on the worker goroutines.
		r.Progress = func(int, int) {
			mu.Lock()
			smp.completions = append(smp.completions, time.Since(start))
			mu.Unlock()
		}
	}
	var m runtime.MemStats
	runtime.GC()
	runtime.ReadMemStats(&m)
	a0 := m.TotalAlloc
	start = time.Now()
	err = r.RunJobs(jobs)
	smp.run = time.Since(start)
	if err != nil {
		return smp, err
	}
	runtime.ReadMemStats(&m)
	smp.alloc = m.TotalAlloc - a0
	smp.executed = r.Executed()
	runtime.GC()
	runtime.ReadMemStats(&m)
	smp.retained = m.HeapAlloc

	var sb strings.Builder
	r.Zoo().Render(&sb)
	smp.table = []byte(sb.String())
	if r.Executed() != smp.executed {
		return smp, fmt.Errorf("rendering the zoo table ran %d more simulations: the job list no longer matches Runner.Zoo", r.Executed()-smp.executed)
	}

	seen := map[string]bool{}
	groups := map[string]bool{}
	logSum := 0.0
	for _, o := range jobs {
		key := experiments.OptionsHash(o)
		if seen[key] {
			continue
		}
		seen[key] = true
		wk, err := experiments.WarmupKey(o)
		if err != nil {
			return smp, err
		}
		groups[wk] = true
		b, err := os.ReadFile(filepath.Join(dir, key+".json"))
		if err != nil {
			return smp, fmt.Errorf("reading cached result: %w", err)
		}
		var e experiments.CacheEntry
		if err := json.Unmarshal(b, &e); err != nil {
			return smp, fmt.Errorf("decoding cached result: %w", err)
		}
		smp.instructions += e.Result.Instructions
		logSum += math.Log(e.Result.IPC)
	}
	smp.uniqueJobs = len(seen)
	smp.warmupGroups = len(groups)
	smp.gmIPC = math.Exp(logSum / float64(len(seen)))
	runtime.KeepAlive(r)
	return smp, nil
}

// sweepSetupReps is how many extra set-ups each sweep-warm operation times
// besides its own: set-up takes tens of microseconds, so its median needs
// more samples than there are sweeps in a run.
const sweepSetupReps = 9

func runSweepUntraced(w workload, rc runConfig, c *checker) map[string]metric {
	oc := outputCheck{pin: w.pin, seed: rc.seed}
	var setup, rate, sims, alloc, retained []float64
	var ipc float64
	sp := newSpeedometer()
	deadline := time.Now().Add(rc.budget)
	for i := 0; i < minOps || time.Now().Before(deadline); i++ {
		var setups []float64
		for j := 0; j < sweepSetupReps; j++ {
			dir := filepath.Join(rc.out, "sweep-setup")
			_, _, d, err := sweepSetup(dir, rc.seed)
			if err != nil {
				c.op(w.name, []string{err.Error()})
				return endToEnd(0, 0, 0, 0, 0, 0)
			}
			setups = append(setups, d.Seconds())
			os.RemoveAll(dir)
		}
		smp, err := sweepOp(rc, false)
		if err != nil {
			c.op(w.name, []string{err.Error()})
			break
		}
		k := sp.scale()
		var problems []string
		if p := oc.check(smp.table); p != "" {
			problems = append(problems, p)
		}
		c.op(w.name, problems)
		for _, d := range append(setups, smp.setup.Seconds()) {
			setup = append(setup, d*k)
		}
		run := smp.run.Seconds() * k
		rate = append(rate, float64(smp.instructions)/run)
		sims = append(sims, float64(smp.executed)/run)
		alloc = append(alloc, float64(smp.alloc)/(float64(smp.instructions)/1000))
		retained = append(retained, float64(smp.retained)/1e6)
		ipc = smp.gmIPC
	}
	return endToEnd(median(rate), median(sims), median(setup), median(alloc), median(retained), ipc)
}
