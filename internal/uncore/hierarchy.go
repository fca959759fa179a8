package uncore

import (
	"bopsim/internal/cache"
	"bopsim/internal/dram"
	"bopsim/internal/mem"
	"bopsim/internal/prefetch"
	"bopsim/internal/tlb"
)

// coreReq is a core-side request (demand load/store miss or DL1 stride
// prefetch) waiting to access a private L2.
type coreReq struct {
	line    mem.LineAddr
	readyAt uint64
	fut     *dram.Future // completion future (also set for L1 prefetches)
	isWrite bool
	l1pf    bool // DL1 stride prefetch rather than a demand request
	pc      uint64
}

// reqQueue is a FIFO of coreReq values: pushes append, pops advance a head
// index, and the backing array is reused once the queue runs dry, so the
// steady-state demand path allocates nothing.
type reqQueue struct {
	reqs []coreReq
	head int
}

func (q *reqQueue) len() int        { return len(q.reqs) - q.head }
func (q *reqQueue) front() *coreReq { return &q.reqs[q.head] }

func (q *reqQueue) push(r coreReq) { q.reqs = append(q.reqs, r) }

func (q *reqQueue) pop() {
	q.reqs[q.head] = coreReq{} // drop the future reference
	q.head++
	if q.head == len(q.reqs) {
		q.reqs = q.reqs[:0]
		q.head = 0
	}
}

// mshr tracks one in-flight DL1 miss for MSHR-style merging.
type mshr struct {
	line      mem.LineAddr
	fut       *dram.Future
	markWrite bool
}

// mshrTable holds one core's in-flight DL1 misses in a fixed array of
// cfg.MSHRs slots. Lookups scan the few live entries; nothing iterates the
// table in order, so swap-remove keeps runs deterministic.
type mshrTable struct {
	live []mshr
}

func (m *mshrTable) len() int { return len(m.live) }

// find returns the entry for line, or nil.
func (m *mshrTable) find(line mem.LineAddr) *mshr {
	for i := range m.live {
		if m.live[i].line == line {
			return &m.live[i]
		}
	}
	return nil
}

// add records a new in-flight miss; the caller has checked for space.
func (m *mshrTable) add(e mshr) { m.live = append(m.live, e) }

// remove drops line's entry, if any.
func (m *mshrTable) remove(line mem.LineAddr) {
	for i := range m.live {
		if m.live[i].line == line {
			last := len(m.live) - 1
			m.live[i] = m.live[last]
			m.live[last] = mshr{} // drop the future reference
			m.live = m.live[:last]
			return
		}
	}
}

// dl1Fill is a block scheduled for insertion into a DL1.
type dl1Fill struct {
	line  mem.LineAddr
	at    uint64
	dirty bool
	pf    bool // set the DL1 prefetch bit (DL1 stride prefetch fills)
}

// Stats aggregates hierarchy-wide event counts.
type Stats struct {
	DL1Hits, DL1Misses   uint64
	L2DemandAccesses     uint64
	L2Hits, L2Misses     uint64
	L2PrefetchedHits     uint64
	L3Hits, L3Misses     uint64
	PrefIssued           uint64 // L2 prefetches entering the prefetch queue
	PrefDroppedDup       uint64 // suppressed by associative searches
	PrefDroppedTagCheck  uint64 // dropped by the mandatory fill-time tag check
	PrefLatePromotions   uint64 // fill-queue entries promoted to demand
	PrefCancelled        uint64 // evicted from the full prefetch queue
	StridePrefIssued     uint64
	StridePrefDroppedTLB uint64
	TLBWalks             uint64

	// Occupancy telemetry (sampled each Tick, core 0 only) for diagnosing
	// where requests queue up.
	TickSamples       uint64
	L2FQOccupancySum  uint64
	L3FQOccupancySum  uint64
	MSHROccupancySum  uint64
	PrefQOccupancySum uint64
}

// Hierarchy is the full uncore shared by all cores of one simulation.
type Hierarchy struct {
	cfg Config

	dl1   []*cache.Cache
	l2    []*cache.Cache
	l3    *cache.Cache
	fivep *cache.FiveP // non-nil when L3Policy is 5P
	tlbs  []*tlb.Hierarchy
	// Prefetcher state is serialized separately through prefetch.StateCodec
	// (only under WarmupPF); SetPrefetchers installs them on restore.
	//bovet:allow statecodec prefetchers checkpoint via prefetch.StateCodec, not the hierarchy snapshot
	l1pf []prefetch.L1Prefetcher // nil entries: no DL1 prefetching
	//bovet:allow statecodec prefetchers checkpoint via prefetch.StateCodec, not the hierarchy snapshot
	l2pf []prefetch.L2Prefetcher
	// preIssueTagCheck enables the extra L2 tag lookup before issuing a
	// prefetch, which the paper adds for SBP-style degree-N requests
	// (section 6.3); prefetchers opt in via prefetch.PreIssueTagChecker.
	//bovet:allow statecodec derived wiring: SetPrefetchers recomputes it from the installed prefetchers
	preIssueTagCheck []bool

	mem *dram.Memory

	demandQ     []reqQueue
	l2fq        []*fillQueue
	l3fq        *fillQueue
	pq          []*prefetchQueue
	outstanding []mshrTable
	dl1Fills    [][]dl1Fill
	pendingWB   []wbReq
	pool        entryPool
	futs        dram.Arena

	// futEpoch counts DRAM bus-cycle ticks: the only moments at which the
	// controller can resolve futures. Fill queues use it to rescan their
	// entries at most once per bus tick (see fillQueue.sync).
	//bovet:allow statecodec rescan memo, not architectural state: SaveState requires Drained (no futures in flight)
	futEpoch uint64
	busRatio uint64

	translators []*mem.Translator

	stats Stats
}

type wbReq struct {
	line mem.LineAddr
	core int
}

// New builds a hierarchy. newL2PF and newL1PF are called once per core to
// construct that core's private L2 and DL1 prefetchers (a nil factory, or a
// factory returning nil, means no prefetching at that level). memory may be
// nil, in which case the default DRAM for cfg.NumCores is built.
func New(cfg Config, newL2PF func(core int) prefetch.L2Prefetcher, newL1PF func(core int) prefetch.L1Prefetcher, memory *dram.Memory) *Hierarchy {
	if memory == nil {
		memory = dram.New(dram.DefaultParams(cfg.NumCores))
	}
	h := &Hierarchy{
		cfg:  cfg,
		l3:   cache.New("L3", cfg.L3Size, cfg.L3Ways, cfg.newL3Policy()),
		mem:  memory,
		l3fq: newFillQueue(cfg.L3FillQueueLen),
	}
	h.busRatio = uint64(memory.Params().BusRatio)
	if fp, ok := h.l3.Policy().(*cache.FiveP); ok {
		h.fivep = fp
	}
	for c := 0; c < cfg.NumCores; c++ {
		dl1Sets := cfg.DL1Size / mem.LineSize / cfg.DL1Ways
		l2Sets := cfg.L2Size / mem.LineSize / cfg.L2Ways
		h.dl1 = append(h.dl1, cache.New("DL1", cfg.DL1Size, cfg.DL1Ways, cache.NewLRU(dl1Sets, cfg.DL1Ways)))
		h.l2 = append(h.l2, cache.New("L2", cfg.L2Size, cfg.L2Ways, cache.NewLRU(l2Sets, cfg.L2Ways)))
		h.tlbs = append(h.tlbs, tlb.New(cfg.Page))
		var l1 prefetch.L1Prefetcher
		if newL1PF != nil {
			l1 = newL1PF(c)
		}
		h.l1pf = append(h.l1pf, l1)
		var pf prefetch.L2Prefetcher = prefetch.None{}
		if newL2PF != nil {
			if p := newL2PF(c); p != nil {
				pf = p
			}
		}
		h.l2pf = append(h.l2pf, pf)
		tagCheck := false
		if tc, ok := pf.(prefetch.PreIssueTagChecker); ok {
			tagCheck = tc.PreIssueTagCheck()
		}
		h.preIssueTagCheck = append(h.preIssueTagCheck, tagCheck)
		h.demandQ = append(h.demandQ, reqQueue{})
		h.l2fq = append(h.l2fq, newFillQueue(cfg.L2FillQueueLen))
		h.pq = append(h.pq, newPrefetchQueue(cfg.PrefetchQueueLen))
		h.outstanding = append(h.outstanding, mshrTable{live: make([]mshr, 0, cfg.MSHRs)})
		h.dl1Fills = append(h.dl1Fills, nil)
		h.translators = append(h.translators, mem.NewTranslator(cfg.Page, cfg.Seed+uint64(c)*0x1234567))
	}
	return h
}

// Stats returns a snapshot of the hierarchy statistics.
func (h *Hierarchy) Stats() Stats {
	s := h.stats
	for c := range h.pq {
		s.PrefCancelled += h.pq[c].Cancelled
	}
	for _, t := range h.tlbs {
		s.TLBWalks += t.Walks
	}
	return s
}

// Memory returns the DRAM model (for traffic statistics).
func (h *Hierarchy) Memory() *dram.Memory { return h.mem }

// L2Prefetcher returns core's L2 prefetcher, for inspection.
func (h *Hierarchy) L2Prefetcher(core int) prefetch.L2Prefetcher { return h.l2pf[core] }

// L1Prefetcher returns core's DL1 prefetcher (nil when disabled), for
// inspection.
func (h *Hierarchy) L1Prefetcher(core int) prefetch.L1Prefetcher { return h.l1pf[core] }

// CanAccept reports whether core can start a new DL1 miss (MSHR space).
func (h *Hierarchy) CanAccept(core int) bool {
	return h.outstanding[core].len() < h.cfg.MSHRs
}

// Access performs a demand load or store for core at cycle now. It returns
// the completion future, or nil when the request cannot be accepted yet
// (MSHRs full) and the core must retry. It is the allocation-convenient
// wrapper over Demand (a DL1 hit costs a resolved Future); the core's hot
// path calls Demand directly.
func (h *Hierarchy) Access(core int, pc uint64, va mem.Addr, isWrite bool, now uint64) *dram.Future {
	done, fut, ok := h.Demand(core, pc, va, isWrite, now)
	switch {
	case !ok:
		return nil
	case fut != nil:
		return fut
	default:
		return dram.ResolvedAt(done)
	}
}

// Demand performs a demand load or store for core at cycle now without
// allocating on the hit path. It returns, in order of precedence:
//
//	ok == false: the request cannot be accepted yet (MSHRs full); retry.
//	fut != nil:  the request is in flight; fut carries the completion.
//	fut == nil:  a DL1 hit; done is the completion cycle.
func (h *Hierarchy) Demand(core int, pc uint64, va mem.Addr, isWrite bool, now uint64) (done uint64, fut *dram.Future, ok bool) {
	tlbLat := h.tlbs[core].Access(va)
	line := h.translators[core].TranslateLine(mem.LineOf(va))
	t0 := now + tlbLat

	if ln := h.dl1[core].Lookup(line); ln != nil {
		h.stats.DL1Hits++
		pfHit := ln.Prefetch
		ln.Prefetch = false
		if isWrite {
			ln.Dirty = true
		}
		if pfHit {
			h.strideQuery(core, pc, va, t0)
		}
		return t0 + h.cfg.DL1Latency, nil, true
	}
	h.stats.DL1Misses++
	h.strideQuery(core, pc, va, t0)

	if m := h.outstanding[core].find(line); m != nil {
		// MSHR merge: a request for this line is already in flight.
		m.markWrite = m.markWrite || isWrite
		return 0, m.fut, true
	}
	if !h.CanAccept(core) {
		return 0, nil, false
	}
	fut = h.futs.Pending()
	h.outstanding[core].add(mshr{line: line, fut: fut, markWrite: isWrite})
	h.demandQ[core].push(coreReq{
		line: line, readyAt: t0 + h.cfg.DL1Latency, fut: fut, isWrite: isWrite, pc: pc,
	})
	return 0, fut, true
}

// RetireMemOp updates the DL1 prefetcher table at retirement of a
// load/store (section 5.5: the table is updated at retirement to see
// accesses in program order).
func (h *Hierarchy) RetireMemOp(core int, pc uint64, va mem.Addr) {
	if h.l1pf[core] != nil {
		h.l1pf[core].Update(pc, va)
	}
}

// strideQuery asks the DL1 prefetcher for a prefetch on a DL1 miss or
// prefetched hit, applying the TLB2 gate of section 5.5.
func (h *Hierarchy) strideQuery(core int, pc uint64, va mem.Addr, t0 uint64) {
	if h.l1pf[core] == nil {
		return
	}
	target, ok := h.l1pf[core].Query(pc, va)
	if !ok {
		return
	}
	if !h.tlbs[core].ProbeTLB2(target) {
		h.stats.StridePrefDroppedTLB++
		return
	}
	line := h.translators[core].TranslateLine(mem.LineOf(target))
	if h.dl1[core].Peek(line) != nil {
		return
	}
	if h.outstanding[core].find(line) != nil {
		return
	}
	if !h.CanAccept(core) {
		return
	}
	fut := h.futs.Pending()
	h.outstanding[core].add(mshr{line: line, fut: fut})
	h.demandQ[core].push(coreReq{
		line: line, readyAt: t0 + h.cfg.DL1Latency, fut: fut, l1pf: true, pc: pc,
	})
	h.stats.StridePrefIssued++
}

// Tick advances the uncore by one cycle: drain ready fills top-down, then
// process core requests at the L2s, then let queued L2 prefetches access
// the L3 (lowest priority), then retry blocked writebacks, then tick DRAM.
//
//bovet:hotpath
func (h *Hierarchy) Tick(now uint64) {
	h.stats.TickSamples++
	h.stats.L2FQOccupancySum += uint64(h.l2fq[0].len())
	h.stats.L3FQOccupancySum += uint64(h.l3fq.len())
	h.stats.MSHROccupancySum += uint64(h.outstanding[0].len())
	h.stats.PrefQOccupancySum += uint64(h.pq[0].n)
	h.drainL3Fills(now)
	for c := range h.l2fq {
		h.drainL2Fills(c, now)
		h.drainDL1Fills(c, now)
	}
	for c := range h.demandQ {
		h.processDemand(c, now)
	}
	for c := range h.pq {
		h.issueQueuedPrefetch(c, now)
	}
	h.retryWritebacks(now)
	h.mem.Tick(now)
	if now%h.busRatio == 0 {
		h.futEpoch++ // the controllers may have resolved futures just now
	}
}

// AccountIdle charges span skipped cycles to the per-cycle sampled
// statistics. The engine calls it when event-driven stepping jumps the
// clock over cycles in which no component can do work: the occupancies a
// per-cycle Tick would have sampled are constant across such a span (a
// change would itself be an event), so span identical samples are added in
// one step and Snapshot bytes match the per-cycle engine exactly.
func (h *Hierarchy) AccountIdle(span uint64) {
	h.stats.TickSamples += span
	h.stats.L2FQOccupancySum += span * uint64(h.l2fq[0].len())
	h.stats.L3FQOccupancySum += span * uint64(h.l3fq.len())
	h.stats.MSHROccupancySum += span * uint64(h.outstanding[0].len())
	h.stats.PrefQOccupancySum += span * uint64(h.pq[0].n)
}

// NextEvent returns the earliest cycle at or after now at which the uncore
// can do real work, or ^uint64(0) when nothing is in flight anywhere. It
// returns now whenever this cycle's Tick would have side effects beyond
// statistics sampling: a due demand-queue head (retries mutate L2 stats and
// prefetcher state every cycle they run), an issuable prefetch, a blocked
// writeback retry, or a non-idle DRAM at a bus-cycle boundary.
func (h *Hierarchy) NextEvent(now uint64) uint64 {
	if len(h.pendingWB) > 0 {
		return now
	}
	next := h.mem.NextEvent(now)
	if next <= now {
		return now
	}
	if t := h.l3fq.nextReady(h.futEpoch); t < next {
		next = t
	}
	for c := range h.l2fq {
		if !h.pq[c].empty() && !h.l2fq[c].full() {
			return now // a queued prefetch will issue this cycle
		}
		if t := h.l2fq[c].nextReady(h.futEpoch); t < next {
			next = t
		}
		if h.demandQ[c].len() > 0 {
			if t := h.demandQ[c].front().readyAt; t < next {
				next = t
			}
		}
		for _, f := range h.dl1Fills[c] {
			if f.at < next {
				next = f.at
			}
		}
	}
	if next < now {
		return now
	}
	return next
}

// drainL3Fills inserts memory data into the L3.
func (h *Hierarchy) drainL3Fills(now uint64) {
	if h.l3fq.len() == 0 {
		return
	}
	for _, e := range h.l3fq.popReady(now, h.futEpoch) {
		if h.l3.Peek(e.line) == nil {
			isPf := e.isPrefetch && !e.promoted
			ev := h.l3.Insert(e.line, cache.InsertInfo{Core: e.core, IsPrefetch: isPf})
			if h.fivep != nil {
				h.fivep.NoteFill(e.core)
			}
			if ev.Valid && ev.Dirty {
				h.writebackToDRAM(ev.Addr, ev.Core)
			}
		}
		h.pool.put(e)
	}
}

// drainL2Fills inserts arrived blocks into core's L2, applying the
// mandatory tag check and forwarding demand data to the DL1 (section 5.4).
func (h *Hierarchy) drainL2Fills(core int, now uint64) {
	if h.l2fq[core].len() == 0 {
		return
	}
	for _, e := range h.l2fq[core].popReady(now, h.futEpoch) {
		// The prefetch *bit* is only set when the block was not promoted to
		// a demand miss in the meantime, but the prefetcher's fill hook
		// sees every block its requests brought in — the BO prefetcher's
		// RR insertion happens at prefetch completion whether the prefetch
		// turned out late or not; lateness is what the learning measures.
		stillPrefetch := e.isPrefetch && !e.promoted
		if h.l2[core].Peek(e.line) != nil {
			// The block arrived but is already cached: mandatory tag check
			// drops the fill (blocks must not be duplicated).
			if stillPrefetch {
				h.stats.PrefDroppedTagCheck++
			}
		} else {
			ev := h.l2[core].Insert(e.line, cache.InsertInfo{Core: core, IsPrefetch: stillPrefetch})
			h.l2pf[core].OnFill(e.line, e.isPrefetch)
			if ev.Valid && ev.Dirty {
				h.writebackToL3(ev.Addr, core)
			}
		}
		if e.fillL1 {
			dirty := e.isWrite
			if m := h.outstanding[core].find(e.line); m != nil {
				dirty = dirty || m.markWrite
			}
			h.insertDL1(core, e.line, dirty, e.l1pf)
		}
		for _, w := range e.waiters {
			w.Resolve(now)
		}
		h.outstanding[core].remove(e.line)
		h.pool.put(e)
	}
}

// drainDL1Fills inserts due blocks into core's DL1 (L2-hit data paths).
func (h *Hierarchy) drainDL1Fills(core int, now uint64) {
	fills := h.dl1Fills[core]
	if len(fills) == 0 {
		return
	}
	kept := fills[:0]
	for _, f := range fills {
		if f.at > now {
			kept = append(kept, f)
			continue
		}
		h.insertDL1(core, f.line, f.dirty, f.pf)
	}
	h.dl1Fills[core] = kept
}

// insertDL1 places line into core's DL1, handling dirty writeback of the
// victim into the L2 (write-back hierarchy).
func (h *Hierarchy) insertDL1(core int, line mem.LineAddr, dirty, pfBit bool) {
	h.outstanding[core].remove(line)
	if ln := h.dl1[core].Peek(line); ln != nil {
		ln.Dirty = ln.Dirty || dirty
		return
	}
	ev := h.dl1[core].Insert(line, cache.InsertInfo{Core: core, IsPrefetch: pfBit, Dirty: dirty})
	if ev.Valid && ev.Dirty {
		if l2ln := h.l2[core].Peek(ev.Addr); l2ln != nil {
			l2ln.Dirty = true
		} else {
			l2ev := h.l2[core].Insert(ev.Addr, cache.InsertInfo{Core: core, Dirty: true})
			if l2ev.Valid && l2ev.Dirty {
				h.writebackToL3(l2ev.Addr, core)
			}
		}
	}
}

// writebackToL3 sends a dirty L2 victim down to the L3 (non-inclusive:
// allocate if absent).
func (h *Hierarchy) writebackToL3(line mem.LineAddr, core int) {
	if ln := h.l3.Peek(line); ln != nil {
		ln.Dirty = true
		return
	}
	ev := h.l3.Insert(line, cache.InsertInfo{Core: core, Dirty: true})
	if h.fivep != nil {
		h.fivep.NoteFill(core)
	}
	if ev.Valid && ev.Dirty {
		h.writebackToDRAM(ev.Addr, ev.Core)
	}
}

// writebackToDRAM queues a dirty L3 victim for memory, buffering when the
// write queue is full.
func (h *Hierarchy) writebackToDRAM(line mem.LineAddr, core int) {
	if !h.mem.EnqueueWrite(line, core) {
		h.pendingWB = append(h.pendingWB, wbReq{line: line, core: core})
	}
}

func (h *Hierarchy) retryWritebacks(uint64) {
	if len(h.pendingWB) == 0 {
		return
	}
	kept := h.pendingWB[:0]
	for _, wb := range h.pendingWB {
		if !h.mem.EnqueueWrite(wb.line, wb.core) {
			kept = append(kept, wb)
		}
	}
	h.pendingWB = kept
}

// processDemand lets up to two due core requests access core's L2 this
// cycle (the L2 is dual-ported for the core side in our model).
func (h *Hierarchy) processDemand(core int, now uint64) {
	for ports := 0; ports < 2; ports++ {
		q := &h.demandQ[core]
		if q.len() == 0 || q.front().readyAt > now {
			return
		}
		if !h.processL2Request(core, q.front(), now) {
			return // blocked on a full queue downstream; retry next cycle
		}
		q.pop()
	}
}

// processL2Request performs the L2 access for a core request. It returns
// false when the request must be retried (fill queue or read queue full).
func (h *Hierarchy) processL2Request(core int, req *coreReq, now uint64) bool {
	l2 := h.l2[core]
	h.stats.L2DemandAccesses++
	if ln := l2.Lookup(req.line); ln != nil {
		h.stats.L2Hits++
		pfHit := ln.Prefetch
		if pfHit {
			h.stats.L2PrefetchedHits++
		}
		ln.Prefetch = false // requested by the L1: reset the prefetch bit
		done := now + h.cfg.L2Latency
		req.fut.Resolve(done)
		h.dl1Fills[core] = append(h.dl1Fills[core], dl1Fill{
			line: req.line, at: done, dirty: req.isWrite, pf: req.l1pf,
		})
		h.triggerL2Prefetcher(core, prefetch.AccessInfo{Line: req.line, Hit: true, PrefetchedHit: pfHit})
		return true
	}
	h.stats.L2Misses++

	// CAM search of the fill queue: merge onto an in-flight fill.
	if e := h.l2fq[core].find(req.line); e != nil {
		if e.isPrefetch && !e.promoted {
			if !h.cfg.LatePromotion {
				// Ablation: no promotion path; the request replays until
				// the prefetch fills the L2.
				return false
			}
			e.promoted = true
			h.stats.PrefLatePromotions++
		}
		if !req.l1pf {
			e.fillL1 = true
			e.isWrite = e.isWrite || req.isWrite
			e.l1pf = false // a demand now depends on this block
		}
		e.waiters = append(e.waiters, req.fut)
		h.triggerL2Prefetcher(core, prefetch.AccessInfo{Line: req.line, Hit: false})
		return true
	}

	if h.l2fq[core].full() {
		return false
	}
	e := h.pool.get()
	e.line, e.core = req.line, core
	e.fillL1, e.isWrite, e.l1pf = true, req.isWrite, req.l1pf
	e.waiters = append(e.waiters, req.fut)
	if !h.accessL3(e, now, false) {
		h.pool.put(e)
		return false
	}
	h.l2fq[core].push(e)
	h.triggerL2Prefetcher(core, prefetch.AccessInfo{Line: req.line, Hit: false})
	return true
}

// accessL3 resolves where entry e's data comes from: L3 hit, an in-flight
// L3 fill, or a new DRAM read. It returns false if a required queue is full
// (nothing is modified in that case).
func (h *Hierarchy) accessL3(e *fillEntry, now uint64, isPrefetch bool) bool {
	if h.l3.Probe(e.line) != nil {
		h.stats.L3Hits++
		e.fut, e.readyAt = nil, now+h.cfg.L3Latency
		return true
	}
	if l3e := h.l3fq.find(e.line); l3e != nil {
		if !isPrefetch && l3e.isPrefetch {
			l3e.promoted = true
		}
		e.fut = l3e.fut
		return true
	}
	if h.l3fq.full() {
		return false
	}
	fut := h.mem.EnqueueRead(e.line, e.core, h.futs.Pending())
	if fut == nil {
		return false
	}
	h.l3.Misses++ // counted only now that the miss is committed
	h.stats.L3Misses++
	l3e := h.pool.get()
	l3e.line, l3e.core, l3e.isPrefetch, l3e.fut = e.line, e.core, isPrefetch, fut
	h.l3fq.push(l3e)
	e.fut = fut
	return true
}

// triggerL2Prefetcher runs core's L2 prefetcher on an access and queues the
// requested prefetches.
func (h *Hierarchy) triggerL2Prefetcher(core int, a prefetch.AccessInfo) {
	for _, target := range h.l2pf[core].OnAccess(a) {
		if h.pq[core].contains(target) || h.l2fq[core].find(target) != nil {
			h.stats.PrefDroppedDup++
			continue
		}
		if h.preIssueTagCheck[core] && h.l2[core].Peek(target) != nil {
			h.stats.PrefDroppedDup++
			continue
		}
		h.pq[core].push(target)
		h.stats.PrefIssued++
	}
}

// issueQueuedPrefetch moves at most one prefetch per cycle from core's
// prefetch queue into the fill path (prefetches have the lowest priority
// for accessing the L3, section 5.4). The queue head is only removed once
// the downstream accepts it, so a blocked prefetch keeps its age.
func (h *Hierarchy) issueQueuedPrefetch(core int, now uint64) {
	if h.pq[core].empty() || h.l2fq[core].full() {
		return
	}
	line, _ := h.pq[core].front()
	e := h.pool.get()
	e.line, e.core, e.isPrefetch = line, core, true
	if !h.accessL3(e, now, true) {
		h.pool.put(e) // downstream full: leave the request queued
		return
	}
	h.pq[core].pop()
	h.l2fq[core].push(e)
}

// Drained reports whether every queue in the hierarchy is empty (used by
// tests to run the system dry).
func (h *Hierarchy) Drained() bool {
	if h.l3fq.len() > 0 || len(h.pendingWB) > 0 || !h.mem.Idle() {
		return false
	}
	for c := range h.l2fq {
		if h.l2fq[c].len() > 0 || h.demandQ[c].len() > 0 || !h.pq[c].empty() || len(h.dl1Fills[c]) > 0 {
			return false
		}
		if h.outstanding[c].len() > 0 {
			return false
		}
	}
	return true
}
