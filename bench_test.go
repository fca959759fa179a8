// Package bopsim_test holds the benchmark harness: one testing.B benchmark
// per table and figure of the paper (regenerating a representative slice of
// it and reporting the figure's metric via b.ReportMetric), the ablation
// benches called out in DESIGN.md, and micro-benchmarks of the core data
// structures. cmd/experiments regenerates the *full* figures; these benches
// exist so `go test -bench` exercises every experiment end to end.
package bopsim_test

import (
	"fmt"
	"runtime"
	"testing"

	"bopsim/internal/core"
	"bopsim/internal/dram"
	"bopsim/internal/engine"
	"bopsim/internal/experiments"
	"bopsim/internal/mem"
	"bopsim/internal/prefetch"
	"bopsim/internal/sbp"
	"bopsim/internal/stats"
	"bopsim/internal/trace"
)

// benchInstructions keeps each simulation slice small enough for -bench
// runs while leaving several BO learning phases per run.
const benchInstructions = 150_000

func baseOpts(workload string, cores int, page mem.PageSize) engine.Options {
	o := engine.DefaultOptions(workload)
	o.Cores = cores
	o.Page = page
	o.Instructions = benchInstructions
	return o
}

// mustRun runs one simulation to completion, failing the benchmark on error.
func mustRun(tb testing.TB, o engine.Options) engine.Result {
	tb.Helper()
	r, err := engine.Run(o)
	if err != nil {
		tb.Fatal(err)
	}
	return r
}

// runPair runs baseline and variant once per iteration and reports the
// variant/baseline IPC ratio (the figure's metric).
func runPair(b *testing.B, base engine.Options, variant func(engine.Options) engine.Options) {
	b.Helper()
	var speedup float64
	for i := 0; i < b.N; i++ {
		rBase := mustRun(b, base)
		rVar := mustRun(b, variant(base))
		speedup = rVar.IPC / rBase.IPC
	}
	b.ReportMetric(speedup, "speedup")
}

// --- Table 1 / Table 2: configuration construction costs -----------------

func BenchmarkTable1BaselineRun(b *testing.B) {
	// One full baseline simulation (Table 1's microarchitecture end to
	// end); the metric is simulated instructions per wall-clock second.
	o := baseOpts("403.gcc", 1, mem.Page4K)
	for i := 0; i < b.N; i++ {
		mustRun(b, o)
	}
	b.ReportMetric(float64(benchInstructions)*float64(b.N)/b.Elapsed().Seconds(), "sim-instr/s")
}

func BenchmarkTable2BOConstruction(b *testing.B) {
	for i := 0; i < b.N; i++ {
		core.New(mem.Page4K, core.DefaultParams())
	}
}

// --- Figures --------------------------------------------------------------

// BenchmarkFig2BaselineIPC measures a baseline configuration (the quantity
// Figure 2 plots) on a memory-bound and a compute-bound workload.
func BenchmarkFig2BaselineIPC(b *testing.B) {
	var ipc float64
	for i := 0; i < b.N; i++ {
		ipc = mustRun(b, baseOpts("462.libquantum", 1, mem.Page4K)).IPC
	}
	b.ReportMetric(ipc, "IPC")
}

func BenchmarkFig3LRUvs5P(b *testing.B) {
	runPair(b, baseOpts("473.astar", 1, mem.Page4K), func(o engine.Options) engine.Options {
		o.L3Policy = "LRU"
		return o
	})
}

func BenchmarkFig3DRRIPvs5P(b *testing.B) {
	runPair(b, baseOpts("473.astar", 1, mem.Page4K), func(o engine.Options) engine.Options {
		o.L3Policy = "DRRIP"
		return o
	})
}

func BenchmarkFig4NoStridePF(b *testing.B) {
	runPair(b, baseOpts("465.tonto", 1, mem.Page4M), func(o engine.Options) engine.Options {
		o.L1PF = prefetch.Spec{Name: "none"}
		return o
	})
}

func BenchmarkFig5NoL2PF(b *testing.B) {
	runPair(b, baseOpts("462.libquantum", 1, mem.Page4K), func(o engine.Options) engine.Options {
		o.L2PF = prefetch.Spec{Name: "none"}
		return o
	})
}

func BenchmarkFig6BOvsNextLine(b *testing.B) {
	runPair(b, baseOpts("433.milc", 1, mem.Page4M), func(o engine.Options) engine.Options {
		o.L2PF = prefetch.Spec{Name: "bo"}
		return o
	})
}

func BenchmarkFig7FixedOffset5(b *testing.B) {
	runPair(b, baseOpts("437.leslie3d", 1, mem.Page4K), func(o engine.Options) engine.Options {
		o.L2PF = prefetch.Spec{Name: "offset"}.With("d", "5")
		return o
	})
}

func BenchmarkFig8OffsetSweepPoint(b *testing.B) {
	// One sweep point of Figure 8: offset 32 on the milc stand-in (a peak).
	runPair(b, baseOpts("433.milc", 1, mem.Page4M), func(o engine.Options) engine.Options {
		o.L2PF = prefetch.Spec{Name: "offset"}.With("d", "32")
		return o
	})
}

func BenchmarkFig9BadScore10(b *testing.B) {
	runPair(b, baseOpts("429.mcf", 1, mem.Page4K), func(o engine.Options) engine.Options {
		o.L2PF = prefetch.Spec{Name: "bo"}.With("badscore", "10")
		return o
	})
}

func BenchmarkFig10RR32(b *testing.B) {
	runPair(b, baseOpts("429.mcf", 1, mem.Page4K), func(o engine.Options) engine.Options {
		o.L2PF = prefetch.Spec{Name: "bo"}.With("rr", "32")
		return o
	})
}

func BenchmarkFig11SBPvsBaseline(b *testing.B) {
	runPair(b, baseOpts("462.libquantum", 1, mem.Page4M), func(o engine.Options) engine.Options {
		o.L2PF = prefetch.Spec{Name: "sbp"}
		return o
	})
}

func BenchmarkFig12BOvsSBP(b *testing.B) {
	var speedup float64
	base := baseOpts("433.milc", 1, mem.Page4M)
	for i := 0; i < b.N; i++ {
		oSBP := base
		oSBP.L2PF = prefetch.Spec{Name: "sbp"}
		oBO := base
		oBO.L2PF = prefetch.Spec{Name: "bo"}
		speedup = mustRun(b, oBO).IPC / mustRun(b, oSBP).IPC
	}
	b.ReportMetric(speedup, "BO/SBP")
}

func BenchmarkFig13DRAMTraffic(b *testing.B) {
	var perKI float64
	o := baseOpts("470.lbm", 1, mem.Page4K)
	o.L2PF = prefetch.Spec{Name: "bo"}
	for i := 0; i < b.N; i++ {
		perKI = mustRun(b, o).DRAMAccessesPerKI
	}
	b.ReportMetric(perKI, "DRAM-acc/KI")
}

// --- Ablations (DESIGN.md section 4) ---------------------------------------

// BenchmarkAblationRRAtIssue removes the timeliness information by writing
// the RR table at prefetch issue instead of completion; the learned offsets
// collapse toward small values and the speedup should drop versus stock BO.
func BenchmarkAblationRRAtIssue(b *testing.B) {
	var ratio float64
	base := baseOpts("462.libquantum", 1, mem.Page4M)
	for i := 0; i < b.N; i++ {
		stock := base
		stock.L2PF = prefetch.Spec{Name: "bo"}
		abl := base
		abl.L2PF = prefetch.Spec{Name: "bo"}.With("rratissue", "true")
		ratio = mustRun(b, abl).IPC / mustRun(b, stock).IPC
	}
	b.ReportMetric(ratio, "ablated/stock")
}

func BenchmarkAblationNoPrefetchBit(b *testing.B) {
	var ratio float64
	base := baseOpts("433.milc", 1, mem.Page4M)
	for i := 0; i < b.N; i++ {
		stock := base
		stock.L2PF = prefetch.Spec{Name: "bo"}
		abl := base
		abl.L2PF = prefetch.Spec{Name: "bo"}.With("allaccess", "true")
		ratio = mustRun(b, abl).IPC / mustRun(b, stock).IPC
	}
	b.ReportMetric(ratio, "ablated/stock")
}

func BenchmarkAblationDenseList(b *testing.B) {
	var ratio float64
	base := baseOpts("433.milc", 1, mem.Page4M)
	for i := 0; i < b.N; i++ {
		stock := base
		stock.L2PF = prefetch.Spec{Name: "bo"}
		abl := base
		abl.L2PF = prefetch.Spec{Name: "bo"}.With("offsets", prefetch.FormatInts(prefetch.DenseOffsetList(64)))
		ratio = mustRun(b, abl).IPC / mustRun(b, stock).IPC
	}
	b.ReportMetric(ratio, "ablated/stock")
}

func BenchmarkAblationNoPromotion(b *testing.B) {
	var ratio float64
	base := baseOpts("462.libquantum", 1, mem.Page4K)
	for i := 0; i < b.N; i++ {
		stock := base
		stock.L2PF = prefetch.Spec{Name: "bo"}
		abl := stock
		abl.LatePromote = false
		ratio = mustRun(b, abl).IPC / mustRun(b, stock).IPC
	}
	b.ReportMetric(ratio, "ablated/stock")
}

// --- Extensions (discussed in the paper, not evaluated there) ---------------

// BenchmarkExtensionDegreeTwo measures the degree-2 BO variant of
// section 4.3 against stock degree-1 BO.
func BenchmarkExtensionDegreeTwo(b *testing.B) {
	var ratio float64
	base := baseOpts("471.omnetpp", 1, mem.Page4K)
	for i := 0; i < b.N; i++ {
		stock := base
		stock.L2PF = prefetch.Spec{Name: "bo"}
		ext := base
		ext.L2PF = prefetch.Spec{Name: "bo"}.With("degree", "2")
		ratio = mustRun(b, ext).IPC / mustRun(b, stock).IPC
	}
	b.ReportMetric(ratio, "degree2/stock")
}

// BenchmarkExtensionNegativeOffsets measures BO with the candidate list
// extended to negative offsets (section 4.2).
func BenchmarkExtensionNegativeOffsets(b *testing.B) {
	var ratio float64
	base := baseOpts("433.milc", 1, mem.Page4M)
	for i := 0; i < b.N; i++ {
		stock := base
		stock.L2PF = prefetch.Spec{Name: "bo"}
		ext := base
		ext.L2PF = prefetch.Spec{Name: "bo"}.With("offsets",
			prefetch.FormatInts(core.WithNegativeOffsets(prefetch.DefaultOffsetList())))
		ratio = mustRun(b, ext).IPC / mustRun(b, stock).IPC
	}
	b.ReportMetric(ratio, "negatives/stock")
}

// BenchmarkExtensionAdaptiveThrottle measures the dynamic-BADSCORE
// heuristic (section 7's future-work item) on the throttling-sensitive mcf
// stand-in.
func BenchmarkExtensionAdaptiveThrottle(b *testing.B) {
	var ratio float64
	base := baseOpts("429.mcf", 1, mem.Page4K)
	for i := 0; i < b.N; i++ {
		stock := base
		stock.L2PF = prefetch.Spec{Name: "bo"}
		ext := base
		ext.L2PF = prefetch.Spec{Name: "bo"}.With("adaptive", "true")
		ratio = mustRun(b, ext).IPC / mustRun(b, stock).IPC
	}
	b.ReportMetric(ratio, "adaptive/stock")
}

// --- Scheduler throughput ---------------------------------------------------

// BenchmarkRunnerParallel measures sweep wall-clock through the experiment
// scheduler over a fixed job set, serial versus parallel, reporting sims/s.
// On multi-core hosts the j>1 variants should show near-linear speedup; the
// tables produced are byte-identical either way (see TestParallelMatchesSerial).
func BenchmarkRunnerParallel(b *testing.B) {
	var jobs []engine.Options
	for _, wl := range []string{"433.milc", "462.libquantum", "429.mcf", "456.hmmer"} {
		for _, page := range []mem.PageSize{mem.Page4K, mem.Page4M} {
			for _, pf := range []prefetch.Spec{{Name: "nextline"}, {Name: "bo"}} {
				o := baseOpts(wl, 1, page)
				o.Instructions = 60_000
				o.L2PF = pf
				jobs = append(jobs, o)
			}
		}
	}
	workers := []int{1, 4}
	if n := runtime.GOMAXPROCS(0); n > 4 {
		workers = append(workers, n)
	}
	for _, j := range workers {
		b.Run(fmt.Sprintf("j%d", j), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				// A fresh Runner each iteration so nothing is cached.
				r := experiments.NewRunner(60_000, experiments.QuickConfigs())
				r.Workers = j
				if err := r.RunJobs(jobs); err != nil {
					b.Fatal(err)
				}
			}
			b.ReportMetric(float64(len(jobs))*float64(b.N)/b.Elapsed().Seconds(), "sims/s")
		})
	}
}

// --- Warmup sharing (checkpoint/restore) ------------------------------------

// warmupBenchJobs is one warmup group's variant sweep: N prefetcher
// variants of one workload, all needing the same warmup leg.
func warmupBenchJobs() []engine.Options {
	var jobs []engine.Options
	for _, spec := range []prefetch.Spec{{Name: "nextline"}, {Name: "bo"}, {Name: "sbp"}, prefetch.Spec{Name: "offset"}.With("d", "4")} {
		o := baseOpts("433.milc", 1, mem.Page4M)
		o.Instructions = 30_000
		o.Warmup = 120_000
		o.L2PF = spec
		jobs = append(jobs, o)
	}
	return jobs
}

// BenchmarkWarmupRepeated is the baseline cost model: every variant
// replays the full warmup before its measured region.
func BenchmarkWarmupRepeated(b *testing.B) {
	jobs := warmupBenchJobs()
	for i := 0; i < b.N; i++ {
		r := experiments.NewRunner(30_000, experiments.QuickConfigs())
		r.Workers = 1
		if err := r.RunJobs(jobs); err != nil {
			b.Fatal(err)
		}
	}
	b.ReportMetric(float64(len(jobs))*float64(b.N)/b.Elapsed().Seconds(), "sims/s")
}

// BenchmarkWarmupShared runs the same sweep with warmup sharing: one
// checkpointed warmup leg, every variant forked from the snapshot. The
// sims/s gap versus BenchmarkWarmupRepeated is the headline win — roughly
// the warmup fraction times (variants-1)/variants.
func BenchmarkWarmupShared(b *testing.B) {
	jobs := warmupBenchJobs()
	dir := b.TempDir()
	for i := 0; i < b.N; i++ {
		r := experiments.NewRunner(30_000, experiments.QuickConfigs())
		r.Workers = 1
		r.Checkpoint = true
		r.CheckpointDir = dir
		if err := r.RunJobs(jobs); err != nil {
			b.Fatal(err)
		}
	}
	b.ReportMetric(float64(len(jobs))*float64(b.N)/b.Elapsed().Seconds(), "sims/s")
}

// --- Micro-benchmarks -------------------------------------------------------
//
// Each builds its subject before the timer starts, so ns/op and allocs/op
// are those of the operation alone, and sinks its results so the calls
// cannot be optimized away.

var (
	sinkBool  bool
	sinkLines []mem.LineAddr
)

func BenchmarkRRTableInsertHit(b *testing.B) {
	rr := core.NewRRTable(256, 12)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		rr.Insert(mem.LineAddr(i))
		sinkBool = rr.Hit(mem.LineAddr(i - 8))
	}
}

func BenchmarkBOOnAccess(b *testing.B) {
	p := core.New(mem.Page4M, core.DefaultParams())
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		sinkLines = p.OnAccess(prefetch.AccessInfo{Line: mem.LineAddr(i)})
	}
}

func BenchmarkSBPOnAccess(b *testing.B) {
	p := sbp.New(mem.Page4M, sbp.DefaultParams())
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		sinkLines = p.OnAccess(prefetch.AccessInfo{Line: mem.LineAddr(i)})
	}
}

func BenchmarkBloomAddContains(b *testing.B) {
	f := sbp.NewBloom(2048, 3)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		f.Add(mem.LineAddr(i))
		sinkBool = f.Contains(mem.LineAddr(i - 3))
	}
}

func BenchmarkDRAMStream(b *testing.B) {
	m := dram.New(dram.DefaultParams(1))
	now := uint64(0)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		for m.EnqueueRead(mem.LineAddr(i), 0, dram.Pending()) == nil {
			m.Tick(now)
			now++
		}
		m.Tick(now)
		now++
	}
}

func BenchmarkWorkloadGen(b *testing.B) {
	w := trace.MustWorkload("433.milc", 1)
	for i := 0; i < b.N; i++ {
		w.Next()
	}
}

func BenchmarkGeoMean(b *testing.B) {
	xs := make([]float64, 29)
	for i := range xs {
		xs[i] = 1 + float64(i)/100
	}
	for i := 0; i < b.N; i++ {
		stats.GeoMean(xs)
	}
}
