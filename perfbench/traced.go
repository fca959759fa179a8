package main

import (
	"encoding/json"
	"fmt"
	"time"

	"bopsim/internal/cpu"
	"bopsim/internal/dram"
	"bopsim/internal/engine"
	"bopsim/internal/mem"
	"bopsim/internal/prefetch"
	"bopsim/internal/trace"
	"bopsim/internal/uncore"
)

// runQuantum mirrors the engine's Run quantum: skip-ahead jumps are clamped
// to quantum boundaries, so the traced loop steps exactly like Simulation.Run.
const runQuantum = 4096

// streamCap bounds each recorded replay stream.
const streamCap = 200_000

// counts are the work counters of one traced pass. They are deterministic:
// every pass of one commit must produce identical counts.
type counts struct {
	Steps, CyclesTicked, CyclesSkipped uint64
	CycleCalls, TickCalls              uint64
	NextCalls                          uint64
	StrideQueries, StrideUpdates       uint64
	OnAccessCalls, LinesReturned       uint64
	OnFillCalls                        uint64
	Hier                               uncore.Stats
}

// spans are the host times of one traced pass. Self times exclude the
// wrapped child spans that ran inside them.
type spans struct {
	nextEvent, cycleSelf, tickSelf time.Duration
	next, stride                   time.Duration
	onAccess, onFill               time.Duration
	wall                           time.Duration
}

// streams are core 0's recorded inputs for the component replays.
type streams struct {
	l2   []l2Event      // L2 accesses and fills, in order
	va   []mem.Addr     // load/store virtual addresses
	miss []mem.LineAddr // L2 misses (physical lines)
}

type l2Event struct {
	info        prefetch.AccessInfo
	fill        bool
	wasPrefetch bool
}

// tracer collects one pass. child accumulates the time of wrapped leaf
// spans since the enclosing top-level span (a core cycle, an uncore tick)
// began, so that span's self time can subtract it.
type tracer struct {
	counts
	spans
	child time.Duration
	rec   *streams // non-nil on the recording pass
}

func (t *tracer) leaf(t0 time.Time, acc *time.Duration) {
	d := time.Since(t0)
	*acc += d
	t.child += d
}

// tracedGen times a core's generator.
type tracedGen struct {
	trace.Generator
	tr  *tracer
	rec bool
}

func (g *tracedGen) Next() trace.Inst {
	t0 := time.Now()
	in := g.Generator.Next()
	g.tr.leaf(t0, &g.tr.next)
	g.tr.NextCalls++
	if g.rec && in.Op != trace.OpALU && len(g.tr.rec.va) < streamCap {
		g.tr.rec.va = append(g.tr.rec.va, in.VA)
	}
	return in
}

// tracedL1 times a core's DL1 prefetcher.
type tracedL1 struct {
	p  prefetch.L1Prefetcher
	tr *tracer
}

func (w *tracedL1) Name() string { return w.p.Name() }

func (w *tracedL1) Query(pc uint64, va mem.Addr) (mem.Addr, bool) {
	t0 := time.Now()
	a, ok := w.p.Query(pc, va)
	w.tr.leaf(t0, &w.tr.stride)
	w.tr.StrideQueries++
	return a, ok
}

func (w *tracedL1) Update(pc uint64, va mem.Addr) {
	t0 := time.Now()
	w.p.Update(pc, va)
	w.tr.leaf(t0, &w.tr.stride)
	w.tr.StrideUpdates++
}

// tracedL2 times a core's L2 prefetcher and forwards its pre-issue tag
// check opt-in, which the hierarchy reads through an interface assertion.
type tracedL2 struct {
	p   prefetch.L2Prefetcher
	tr  *tracer
	rec bool
}

func (w *tracedL2) Name() string { return w.p.Name() }

func (w *tracedL2) PreIssueTagCheck() bool {
	tc, ok := w.p.(prefetch.PreIssueTagChecker)
	return ok && tc.PreIssueTagCheck()
}

func (w *tracedL2) OnAccess(a prefetch.AccessInfo) []mem.LineAddr {
	t0 := time.Now()
	lines := w.p.OnAccess(a)
	w.tr.leaf(t0, &w.tr.onAccess)
	w.tr.OnAccessCalls++
	w.tr.LinesReturned += uint64(len(lines))
	if w.rec && len(w.tr.rec.l2) < streamCap {
		w.tr.rec.l2 = append(w.tr.rec.l2, l2Event{info: a})
		if !a.Hit {
			w.tr.rec.miss = append(w.tr.rec.miss, a.Line)
		}
	}
	return lines
}

func (w *tracedL2) OnFill(line mem.LineAddr, wasPrefetch bool) {
	t0 := time.Now()
	w.p.OnFill(line, wasPrefetch)
	w.tr.leaf(t0, &w.tr.onFill)
	w.tr.OnFillCalls++
	if w.rec && len(w.tr.rec.l2) < streamCap {
		w.tr.rec.l2 = append(w.tr.rec.l2, l2Event{info: prefetch.AccessInfo{Line: line}, fill: true, wasPrefetch: wasPrefetch})
	}
}

// machineResult is the part of engine.Result the traced machine must
// reproduce exactly.
type machineResult struct {
	Cycles       uint64
	Instructions uint64
	Hier         uncore.Stats
	DRAM         dram.Stats
}

func resultOf(r engine.Result) machineResult {
	return machineResult{r.Cycles, r.Instructions, r.Hier, r.DRAM}
}

// tracedRun assembles the machine engine.New would build for o, from the
// public constructors, with every generator and prefetcher wrapped, and
// runs it to completion with the engine's skip-ahead rule. o must have no
// warmup region. With record set, core 0's replay streams are kept.
func tracedRun(o engine.Options, record bool) (*tracer, machineResult, error) {
	tr := &tracer{}
	if record {
		tr.rec = &streams{}
	}
	o = o.Normalized()
	if _, err := prefetch.NewL2(o.L2PF, o.Page); err != nil {
		return nil, machineResult{}, err
	}
	if _, err := prefetch.NewL1(o.L1PF, o.Page); err != nil {
		return nil, machineResult{}, err
	}
	ucfg := uncore.DefaultConfig(o.Cores, o.Page)
	ucfg.L3Policy = o.L3Policy
	ucfg.LatePromotion = o.LatePromote
	ucfg.Seed = o.Seed
	hier := uncore.New(ucfg,
		func(core int) prefetch.L2Prefetcher {
			p, _ := prefetch.NewL2(o.L2PF, o.Page) // validated above
			return &tracedL2{p: p, tr: tr, rec: record && core == 0}
		},
		func(int) prefetch.L1Prefetcher {
			p, _ := prefetch.NewL1(o.L1PF, o.Page)
			if p == nil {
				return nil
			}
			return &tracedL1{p: p, tr: tr}
		}, nil)
	var cores []*cpu.Core
	for i := 0; i < o.Cores; i++ {
		// The engine seeds core i's generator with Seed+i*7919; the
		// traced==untraced check fails loudly if that rule ever changes.
		gen, err := trace.NewGenerator(o.Workloads[i], o.Seed+uint64(i)*7919)
		if err != nil {
			return nil, machineResult{}, err
		}
		cores = append(cores, cpu.New(i, o.CPU, hier, &tracedGen{Generator: gen, tr: tr, rec: record && i == 0}))
	}

	start := time.Now()
	var now uint64
	done := func() bool { return cores[0].Retired >= o.Instructions }
	for !done() {
		target := now + runQuantum
		for now < target && !done() {
			t0 := time.Now()
			ne := nextEventCycle(hier, cores, now)
			tr.nextEvent += time.Since(t0)
			tr.Steps++
			if ne > now && ne != ^uint64(0) {
				jump := min(ne, target, o.MaxCycles)
				hier.AccountIdle(jump - now)
				tr.CyclesSkipped += jump - now
				now = jump
			} else {
				for _, c := range cores {
					t0 = time.Now()
					tr.child = 0
					c.Cycle(now)
					tr.cycleSelf += time.Since(t0) - tr.child
				}
				t0 = time.Now()
				tr.child = 0
				hier.Tick(now)
				tr.tickSelf += time.Since(t0) - tr.child
				tr.CycleCalls += uint64(len(cores))
				tr.TickCalls++
				tr.CyclesTicked++
				now++
			}
			if now >= o.MaxCycles && !done() {
				return nil, machineResult{}, fmt.Errorf("traced run wedged after %d cycles", now)
			}
		}
	}
	tr.wall = time.Since(start)
	tr.Hier = hier.Stats()
	return tr, machineResult{
		Cycles:       now,
		Instructions: cores[0].Retired,
		Hier:         tr.Hier,
		DRAM:         hier.Memory().TotalStats(),
	}, nil
}

// nextEventCycle is the engine's skip-ahead rule: the earliest cycle at or
// after now at which any core or the uncore has work.
func nextEventCycle(hier *uncore.Hierarchy, cores []*cpu.Core, now uint64) uint64 {
	next := ^uint64(0)
	for _, c := range cores {
		if t := c.NextEvent(now); t < next {
			next = t
			if next <= now {
				return now
			}
		}
	}
	if t := hier.NextEvent(now); t < next {
		next = t
	}
	if next < now {
		return now
	}
	return next
}

// sameJSON reports whether a and b encode identically.
func sameJSON(a, b any) bool {
	ja, errA := json.Marshal(a)
	jb, errB := json.Marshal(b)
	return errA == nil && errB == nil && string(ja) == string(jb)
}
