package main

import (
	"context"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"runtime/pprof"
	"sort"
	"time"

	"bopsim/internal/cache"
	"bopsim/internal/dram"
	"bopsim/internal/engine"
	"bopsim/internal/mem"
	"bopsim/internal/prefetch"
	"bopsim/internal/tlb"
	"bopsim/internal/uncore"
)

// replaySpecs are the registered L2 prefetchers replayed on the recorded
// L2 stream, one per-layer metric each. A prefetcher registered later
// needs its own entry here and in BENCHMARK.json.
var replaySpecs = []string{"adapt", "bo", "duel", "multi", "nextline", "none", "offset", "sbp"}

// Heap-profile run lengths for gcc-bo's memory attribution.
var heapProfileLengths = []uint64{150_000, 1_000_000}

// runTraced measures the per-layer metrics: it alternates untraced and
// traced runs of the workload's machine until the budget is spent, then
// records replay streams in one more traced pass, replays them through
// each component, and times a warmup/checkpoint/restore leg. sweep-warm
// additionally runs whole sweeps with a progress hook.
func runTraced(w workload, rc runConfig, c *checker) map[string]metric {
	o := w.machine(rc.seed)
	m := map[string]metric{}
	if w.name == "gcc-bo" {
		if err := heapProfiles(o, rc.out); err != nil {
			c.op(w.name+" heap profiles", []string{err.Error()})
		}
	}

	var sw sweepLayers
	oc := outputCheck{pin: w.pin, seed: rc.seed}
	var first *counts
	var newS, newAlloc, runAlloc, overhead []float64
	var passes []*tracer
	var untraced engine.Result // every untraced repeat is byte-identical
	sp := newSpeedometer()
	deadline := time.Now().Add(rc.budget)
	for i := 0; i < 2 || time.Now().Before(deadline); i++ {
		if w.sweep {
			sw.op(rc, c, &oc)
		}
		smp, err := timedRun(o)
		if err != nil {
			c.op(w.name+" untraced", []string{err.Error()})
			return m
		}
		var problems []string
		if !w.sweep {
			if p := oc.check(smp.resJSON); p != "" {
				problems = append(problems, p)
			}
		}
		tr, res, err := tracedRun(o, false)
		if err != nil {
			c.op(w.name+" traced", []string{err.Error()})
			return m
		}
		untraced = smp.res
		problems = append(problems, compareTraced(tr, res, smp.res, &first)...)
		c.op(w.name+" traced", problems)
		for _, d := range smp.setups {
			newS = append(newS, d.Seconds())
		}
		newAlloc = append(newAlloc, float64(smp.setupAlloc))
		runAlloc = append(runAlloc, float64(smp.runAlloc))
		overhead = append(overhead, tr.wall.Seconds()/smp.run.Seconds()-1)
		passes = append(passes, tr)
		sp.scale()
	}

	// The recording pass's times include the recording and are discarded;
	// its counts must still repeat.
	rec, res, err := tracedRun(o, true)
	if err != nil {
		c.op(w.name+" recording", []string{err.Error()})
		return m
	}
	c.op(w.name+" recording", compareTraced(rec, res, untraced, &first))

	put := func(name string, v float64, unit string) { m[name] = metric{v, unit} }
	med := func(f func(*tracer) time.Duration) float64 {
		var xs []float64
		for _, p := range passes {
			xs = append(xs, f(p).Seconds())
		}
		return median(xs)
	}
	cnt := first
	put("engine.steps", float64(cnt.Steps), "count")
	put("engine.cycles_ticked", float64(cnt.CyclesTicked), "count")
	put("engine.cycles_skipped", float64(cnt.CyclesSkipped), "count")
	put("engine.skip_frac", float64(cnt.CyclesSkipped)/float64(cnt.CyclesSkipped+cnt.CyclesTicked), "fraction")
	put("engine.next_event_s", med(func(t *tracer) time.Duration { return t.nextEvent }), "s")
	put("engine.new_s", median(newS), "s")
	put("engine.new_alloc_bytes", median(newAlloc), "B")
	put("engine.run_alloc_bytes", median(runAlloc), "B")
	put("cpu.cycle_calls", float64(cnt.CycleCalls), "count")
	put("cpu.cycle_self_s", med(func(t *tracer) time.Duration { return t.cycleSelf }), "s")
	put("trace.next_calls", float64(cnt.NextCalls), "count")
	put("trace.next_s", med(func(t *tracer) time.Duration { return t.next }), "s")
	put("stride.query_calls", float64(cnt.StrideQueries), "count")
	put("stride.update_calls", float64(cnt.StrideUpdates), "count")
	put("stride.s", med(func(t *tracer) time.Duration { return t.stride }), "s")
	put("uncore.tick_calls", float64(cnt.TickCalls), "count")
	put("uncore.tick_self_s", med(func(t *tracer) time.Duration { return t.tickSelf }), "s")
	h := cnt.Hier
	put("uncore.l2_accesses", float64(h.L2DemandAccesses), "count")
	put("uncore.l2_misses", float64(h.L2Misses), "count")
	put("uncore.l3_misses", float64(h.L3Misses), "count")
	put("uncore.tlb_walks", float64(h.TLBWalks), "count")
	put("uncore.pf_issued", float64(h.PrefIssued), "count")
	put("uncore.pf_useful", float64(h.L2PrefetchedHits), "count")
	put("uncore.pf_accuracy", ratio(h.L2PrefetchedHits, h.PrefIssued), "fraction")
	put("uncore.pf_late", float64(h.PrefLatePromotions), "count")
	put("prefetch.on_access_calls", float64(cnt.OnAccessCalls), "count")
	put("prefetch.on_access_s", med(func(t *tracer) time.Duration { return t.onAccess }), "s")
	put("prefetch.lines_returned", float64(cnt.LinesReturned), "count")
	put("prefetch.on_fill_calls", float64(cnt.OnFillCalls), "count")
	put("prefetch.on_fill_s", med(func(t *tracer) time.Duration { return t.onFill }), "s")
	put("bench.trace_overhead_frac", median(overhead), "fraction")
	put("bench.calibration_s", median(sp.samples), "s")

	replays(o.Normalized(), rec.rec, put)

	warm, ckpt, size, restore, err := checkpointLeg(w, rc.seed)
	c.op(w.name+" checkpoint leg", errList(err))
	put("engine.warmup_s", warm, "s")
	put("engine.checkpoint_s", ckpt, "s")
	put("engine.checkpoint_bytes", size, "B")
	put("engine.restore_s", restore, "s")

	sw.report(put)
	return m
}

func ratio(a, b uint64) float64 {
	if b == 0 {
		return 0
	}
	return float64(a) / float64(b)
}

func errList(err error) []string {
	if err == nil {
		return nil
	}
	return []string{err.Error()}
}

// compareTraced checks a traced pass against the untraced result of the
// same options, and its counts against the first pass's.
func compareTraced(tr *tracer, traced machineResult, untraced engine.Result, first **counts) []string {
	var problems []string
	if !sameJSON(traced, resultOf(untraced)) {
		problems = append(problems, "traced machine's Cycles/Instructions/Hier/DRAM differ from the untraced Result")
	}
	if *first == nil {
		c := tr.counts
		*first = &c
	} else if **first != tr.counts {
		problems = append(problems, fmt.Sprintf("counts differ between traced passes: %+v vs %+v", **first, tr.counts))
	}
	return problems
}

// replays times each component alone on core 0's recorded streams. Each
// replay runs three times on a freshly built component (the build is not
// timed); the median is reported.
func replays(o engine.Options, s *streams, put func(string, float64, string)) {
	nsPer := func(n int, build func() func()) float64 {
		var xs []float64
		for i := 0; i < 3; i++ {
			run := build()
			runtime.GC()
			t0 := time.Now()
			run()
			xs = append(xs, float64(time.Since(t0).Nanoseconds())/float64(max(n, 1)))
		}
		return median(xs)
	}
	accesses := 0
	for _, ev := range s.l2 {
		if !ev.fill {
			accesses++
		}
	}
	for _, name := range replaySpecs {
		put("prefetch.replay."+name+".ns_per_access", nsPer(accesses, func() func() {
			p, err := prefetch.NewL2(prefetch.Spec{Name: name}, o.Page)
			if err != nil {
				panic(err) // registered names build with default parameters
			}
			return func() {
				for _, ev := range s.l2 {
					if ev.fill {
						p.OnFill(ev.info.Line, ev.wasPrefetch)
					} else {
						p.OnAccess(ev.info)
					}
				}
			}
		}), "ns")
	}
	put("tlb.replay_ns_per_access", nsPer(len(s.va), func() func() {
		t := tlb.New(o.Page)
		return func() {
			for _, va := range s.va {
				t.Access(va)
			}
		}
	}), "ns")
	cfg := uncore.DefaultConfig(o.Cores, o.Page)
	put("cache.replay_ns_per_access", nsPer(accesses, func() func() {
		sets := cfg.L2Size / mem.LineSize / cfg.L2Ways
		l2 := cache.New("L2", cfg.L2Size, cfg.L2Ways, cache.NewLRU(sets, cfg.L2Ways))
		return func() {
			for _, ev := range s.l2 {
				if !ev.fill && l2.Lookup(ev.info.Line) == nil {
					l2.Insert(ev.info.Line, cache.InsertInfo{})
				}
			}
		}
	}), "ns")
	put("dram.replay_ns_per_read", nsPer(len(s.miss), func() func() {
		m := dram.New(dram.DefaultParams(o.Cores))
		return func() {
			var arena dram.Arena
			fut := arena.Pending()
			var now uint64
			for i := 0; i < len(s.miss) || !m.Idle(); now++ {
				if i < len(s.miss) && m.EnqueueRead(s.miss[i], 0, fut) != nil {
					i++
					fut = arena.Pending()
				}
				m.Tick(now)
			}
		}
	}), "ns")
}

// checkpointLeg times engine.RunWarmup, Simulation.Checkpoint and
// engine.Restore on the workload's machine (sweep-warm: its first row at
// its own warmup length), median of three legs. The snapshot bytes must
// repeat exactly.
func checkpointLeg(w workload, seed uint64) (warmS, ckptS, size, restoreS float64, err error) {
	o := w.machine(seed)
	o.Warmup = legWarmup
	if w.sweep {
		o.Warmup = sweepWarmup
	}
	var warm, ckpt, restore []float64
	var firstSHA string
	for i := 0; i < 3; i++ {
		runtime.GC()
		s, err := engine.New(o)
		if err != nil {
			return 0, 0, 0, 0, err
		}
		t0 := time.Now()
		if err := s.RunWarmup(context.Background()); err != nil {
			return 0, 0, 0, 0, err
		}
		t1 := time.Now()
		data, err := s.Checkpoint()
		if err != nil {
			return 0, 0, 0, 0, err
		}
		t2 := time.Now()
		r, err := engine.Restore(data, o)
		if err != nil {
			return 0, 0, 0, 0, err
		}
		t3 := time.Now()
		if !r.AtBarrier() {
			return 0, 0, 0, 0, fmt.Errorf("restored simulation is not at the warmup barrier")
		}
		if sum := sha256Hex(data); firstSHA == "" {
			firstSHA = sum
		} else if sum != firstSHA {
			return 0, 0, 0, 0, fmt.Errorf("checkpoint bytes differ between repeats")
		}
		warm = append(warm, t1.Sub(t0).Seconds())
		ckpt = append(ckpt, t2.Sub(t1).Seconds())
		restore = append(restore, t3.Sub(t2).Seconds())
		size = float64(len(data))
	}
	return median(warm), median(ckpt), size, median(restore), nil
}

// heapProfiles writes heap profiles after untraced runs of o at each of
// heapProfileLengths, for attributing allocation growth with run length
// (compare with go tool pprof -sample_index=alloc_space -base).
func heapProfiles(o engine.Options, dir string) error {
	prev := runtime.MemProfileRate
	runtime.MemProfileRate = 4096
	defer func() { runtime.MemProfileRate = prev }()
	for _, n := range heapProfileLengths {
		o.Instructions = n
		s, err := engine.New(o)
		if err != nil {
			return err
		}
		if _, err := s.Run(context.Background()); err != nil {
			return err
		}
		runtime.GC()
		f, err := os.Create(filepath.Join(dir, fmt.Sprintf("gcc-bo.heap.%dk.pprof", n/1000)))
		if err != nil {
			return err
		}
		werr := pprof.Lookup("heap").WriteTo(f, 0)
		if err := f.Close(); werr == nil {
			werr = err
		}
		if werr != nil {
			return werr
		}
	}
	return nil
}

// sweepLayers accumulates sweep-warm's scheduler metrics over traced
// sweeps; on the single-run workloads it stays empty and reports zeros.
type sweepLayers struct {
	first                        *sweepSample
	jobs, executed, warmupGroups float64
	busy                         []float64
}

func (s *sweepLayers) op(rc runConfig, c *checker, oc *outputCheck) {
	smp, err := sweepOp(rc, true)
	if err != nil {
		c.op("sweep-warm", []string{err.Error()})
		return
	}
	var problems []string
	if p := oc.check(smp.table); p != "" {
		problems = append(problems, p)
	}
	if s.first == nil {
		s.first = &smp
	} else if s.first.executed != smp.executed || s.first.uniqueJobs != smp.uniqueJobs ||
		s.first.warmupGroups != smp.warmupGroups || len(s.first.completions) != len(smp.completions) {
		problems = append(problems, "sweep counts differ between repeats")
	}
	c.op("sweep-warm", problems)
	// Workers pull jobs until none is left, so the last min(workers, jobs)
	// completions end each worker's busy span, which starts with RunJobs.
	done := append([]time.Duration(nil), smp.completions...)
	sort.Slice(done, func(i, j int) bool { return done[i] < done[j] })
	slots := min(sweepWorkers, len(done))
	var busy time.Duration
	for _, d := range done[len(done)-slots:] {
		busy += d
	}
	s.busy = append(s.busy, busy.Seconds()/(float64(slots)*smp.run.Seconds()))
	s.jobs, s.executed, s.warmupGroups = float64(len(smp.completions)), float64(smp.executed), float64(smp.warmupGroups)
}

func (s *sweepLayers) report(put func(string, float64, string)) {
	put("experiments.jobs", s.jobs, "count")
	put("experiments.executed", s.executed, "count")
	put("experiments.warmup_groups", s.warmupGroups, "count")
	put("experiments.worker_busy_frac", median(s.busy), "fraction")
}
