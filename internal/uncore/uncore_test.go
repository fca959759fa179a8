package uncore

import (
	"testing"

	"bopsim/internal/dram"
	"bopsim/internal/mem"
	"bopsim/internal/prefetch"
	"bopsim/internal/stride"
)

// testHier builds a 1-core hierarchy with the given L2 prefetcher and the
// baseline DL1 stride prefetcher.
func testHier(pf prefetch.L2Prefetcher) *Hierarchy {
	cfg := DefaultConfig(1, mem.Page4K)
	return New(cfg,
		func(int) prefetch.L2Prefetcher { return pf },
		func(int) prefetch.L1Prefetcher { return stride.New() },
		nil)
}

// runUntil ticks the hierarchy until fut resolves, returning the cycle.
func runUntil(t *testing.T, h *Hierarchy, fut *dram.Future, from, budget uint64) uint64 {
	t.Helper()
	for now := from; now < from+budget; now++ {
		h.Tick(now)
		if fut.Resolved() && fut.Cycle() <= now {
			return fut.Cycle()
		}
	}
	t.Fatalf("request unresolved after %d cycles", budget)
	return 0
}

func TestDemandMissGoesToDRAMAndFills(t *testing.T) {
	h := testHier(prefetch.None{})
	fut := h.Access(0, 0x400, 0x10000, false, 0)
	if fut == nil {
		t.Fatal("access rejected")
	}
	done := runUntil(t, h, fut, 0, 100000)
	if done < 100 {
		t.Errorf("cold miss completed in %d cycles; too fast for DRAM", done)
	}
	// Drain remaining work, then the same address must hit the DL1.
	for now := done; !h.Drained(); now++ {
		h.Tick(now)
	}
	fut2 := h.Access(0, 0x400, 0x10000, false, done+1000)
	if !fut2.Resolved() || fut2.Cycle() > done+1000+h.cfg.DL1Latency {
		t.Error("second access did not hit the DL1")
	}
	if h.Stats().DL1Hits != 1 {
		t.Errorf("DL1Hits = %d, want 1", h.Stats().DL1Hits)
	}
}

func TestMSHRMerging(t *testing.T) {
	h := testHier(prefetch.None{})
	f1 := h.Access(0, 0x400, 0x10000, false, 0)
	f2 := h.Access(0, 0x404, 0x10008, false, 0) // same line
	if f1 != f2 {
		t.Error("two misses to one line did not merge onto one future")
	}
	// A store merging onto the in-flight load must leave the filled DL1
	// line dirty, and the fill must free the MSHR.
	if f3 := h.Access(0, 0x408, 0x10010, true, 1); f3 != f1 {
		t.Fatal("store to the in-flight line did not merge")
	}
	now := runUntil(t, h, f1, 1, 100000)
	for ; !h.Drained(); now++ {
		h.Tick(now)
	}
	line := h.translators[0].TranslateLine(mem.LineOf(0x10000))
	if ln := h.dl1[0].Peek(line); ln == nil || !ln.Dirty {
		t.Error("merged store did not mark the filled DL1 line dirty")
	}
	if h.outstanding[0].len() != 0 {
		t.Errorf("%d MSHRs still held after the fill", h.outstanding[0].len())
	}
}

// TestL3CountersMatchHierarchyStats checks the L3 cache's own counters,
// which checkpoints carry, against the hierarchy's: a hit counts once, a
// miss counts once when it goes to DRAM, and a request merging onto an
// in-flight L3 fill counts neither.
func TestL3CountersMatchHierarchyStats(t *testing.T) {
	h := testHier(prefetch.NewNextLine(mem.Page4K))
	var now uint64
	const lines = 16384 // 1 MB: twice the L2, an eighth of the L3
	for i := 0; i < 2*lines; i++ {
		// The second pass hits the L3, and next-line prefetches race the
		// demands of both passes to the same lines.
		va := mem.Addr(0x200000 + (i%lines)*mem.LineSize)
		for h.Access(0, 0x400, va, i%7 == 0, now) == nil {
			h.Tick(now)
			now++
		}
		h.Tick(now)
		now++
	}
	for ; !h.Drained(); now++ {
		h.Tick(now)
	}
	st := h.Stats()
	if st.L3Hits == 0 || st.L3Misses == 0 {
		t.Fatalf("stream produced %d L3 hits and %d misses; want both", st.L3Hits, st.L3Misses)
	}
	if h.l3.Hits != st.L3Hits || h.l3.Misses != st.L3Misses {
		t.Errorf("L3 cache counted %d hits, %d misses; hierarchy counted %d, %d",
			h.l3.Hits, h.l3.Misses, st.L3Hits, st.L3Misses)
	}
}

func TestMSHRCapacity(t *testing.T) {
	h := testHier(prefetch.None{})
	for i := 0; i < h.cfg.MSHRs; i++ {
		if h.Access(0, 0x400, mem.Addr(0x100000+i*4096), false, 0) == nil {
			t.Fatalf("access %d rejected below MSHR capacity", i)
		}
	}
	if h.Access(0, 0x400, 0x900000, false, 0) != nil {
		t.Error("access accepted beyond MSHR capacity")
	}
	if h.CanAccept(0) {
		t.Error("CanAccept true with full MSHRs")
	}
}

func TestLatePrefetchPromotion(t *testing.T) {
	// Issue a BO-style prefetch via a fake prefetcher, then a demand to the
	// same line while it is in flight: the demand must complete with the
	// prefetch (promotion), not issue a second memory read.
	pf := &scriptedPF{}
	h := testHier(pf)

	// Trigger: a demand miss to line A, prefetcher asks for line B.
	pf.targets = []mem.LineAddr{h.translators[0].TranslateLine(mem.LineOf(0x20000))}
	futA := h.Access(0, 0x400, 0x10000, false, 0)
	// Let the prefetch enter the fill path.
	for now := uint64(0); now < 50; now++ {
		h.Tick(now)
	}
	// Demand for the prefetched line while in flight.
	futB := h.Access(0, 0x404, 0x20000, false, 50)
	runUntil(t, h, futA, 50, 100000)
	runUntil(t, h, futB, 50, 100000)
	if h.Stats().PrefLatePromotions != 1 {
		t.Fatalf("PrefLatePromotions = %d, want 1", h.Stats().PrefLatePromotions)
	}
	if got := h.Memory().TotalStats().Reads; got != 2 {
		t.Errorf("DRAM reads = %d, want 2 (one per line, no duplicate)", got)
	}
}

func TestPromotionDisabledAblation(t *testing.T) {
	cfg := DefaultConfig(1, mem.Page4K)
	cfg.LatePromotion = false
	pf := &scriptedPF{}
	h := New(cfg, func(int) prefetch.L2Prefetcher { return pf }, nil, nil)
	pf.targets = []mem.LineAddr{h.translators[0].TranslateLine(mem.LineOf(0x20000))}
	h.Access(0, 0x400, 0x10000, false, 0)
	for now := uint64(0); now < 50; now++ {
		h.Tick(now)
	}
	futB := h.Access(0, 0x404, 0x20000, false, 50)
	done := runUntil(t, h, futB, 50, 200000)
	if h.Stats().PrefLatePromotions != 0 {
		t.Error("promotion happened despite ablation")
	}
	_ = done // the request completes via replay after the prefetch fills
}

func TestPrefetchFillSetsPrefetchBitAndDemandClearsIt(t *testing.T) {
	pf := &scriptedPF{}
	h := testHier(pf)
	target := h.translators[0].TranslateLine(mem.LineOf(0x20000))
	pf.targets = []mem.LineAddr{target}
	futA := h.Access(0, 0x400, 0x10000, false, 0)
	runUntil(t, h, futA, 0, 100000)
	var now uint64 = futA.Cycle()
	for ; !h.Drained(); now++ {
		h.Tick(now)
	}
	ln := h.l2[0].Peek(target)
	if ln == nil || !ln.Prefetch {
		t.Fatal("prefetched line missing from L2 or prefetch bit clear")
	}
	// Demand access: must be counted as a prefetched hit and clear the bit.
	futB := h.Access(0, 0x404, 0x20000, false, now)
	runUntil(t, h, futB, now, 100000)
	if h.Stats().L2PrefetchedHits != 1 {
		t.Errorf("L2PrefetchedHits = %d, want 1", h.Stats().L2PrefetchedHits)
	}
	if ln := h.l2[0].Peek(target); ln == nil || ln.Prefetch {
		t.Error("prefetch bit not cleared by demand use")
	}
}

func TestPrefetcherSeesEligibleAccessesOnly(t *testing.T) {
	pf := &scriptedPF{}
	h := testHier(pf)
	futA := h.Access(0, 0x400, 0x10000, false, 0)
	runUntil(t, h, futA, 0, 100000)
	var now uint64 = futA.Cycle()
	for ; !h.Drained(); now++ {
		h.Tick(now)
	}
	missAccesses := pf.accesses
	if missAccesses == 0 {
		t.Fatal("prefetcher saw no accesses for a demand miss")
	}
	// A DL1 hit must not reach the L2 prefetcher.
	h.Access(0, 0x404, 0x10000, false, now)
	if pf.accesses != missAccesses {
		t.Error("DL1 hit reached the L2 prefetcher")
	}
}

func TestWritebackPath(t *testing.T) {
	// Fill many distinct lines mapping to one DL1 set with stores; evicted
	// dirty victims must propagate writebacks without losing requests.
	h := testHier(prefetch.None{})
	var now uint64
	for i := 0; i < 40; i++ {
		va := mem.Addr(0x100000 + i*h.dl1[0].Sets()*mem.LineSize)
		var fut *dram.Future
		for fut == nil {
			fut = h.Access(0, 0x500, va, true, now)
			h.Tick(now)
			now++
		}
		for !fut.DoneBy(now) {
			h.Tick(now)
			now++
		}
	}
	for !h.Drained() {
		h.Tick(now)
		now++
	}
	// All 40 lines were stored to; several must have been evicted dirty
	// from the tiny DL1 set into the L2.
	dirtyL2 := 0
	for i := 0; i < 40; i++ {
		va := mem.Addr(0x100000 + i*h.dl1[0].Sets()*mem.LineSize)
		line := h.translators[0].TranslateLine(mem.LineOf(va))
		if ln := h.l2[0].Peek(line); ln != nil && ln.Dirty {
			dirtyL2++
		}
	}
	if dirtyL2 == 0 {
		t.Error("no dirty lines reached the L2 after DL1 evictions")
	}
}

func TestStridePrefetcherIssuesIntoHierarchy(t *testing.T) {
	h := testHier(prefetch.None{})
	var now uint64
	// Train PC 0x600 with a 64-byte stride: each access misses the DL1 on
	// a fresh line, and the prefetch target (current + 16*64B) stays close
	// enough that its page is usually TLB2-resident.
	va := mem.Addr(0x400000)
	for i := 0; i < 80; i++ {
		fut := h.Access(0, 0x600, va, false, now)
		h.RetireMemOp(0, 0x600, va)
		if fut != nil {
			for !fut.DoneBy(now) {
				h.Tick(now)
				now++
			}
		}
		va += 64
		now += 10
	}
	if h.Stats().StridePrefIssued == 0 {
		t.Error("stride prefetcher never issued despite a constant stride")
	}
}

func TestStridePrefetchTLB2Gate(t *testing.T) {
	h := testHier(prefetch.None{})
	var now uint64
	// Stride of one page: the target page is never TLB2-resident.
	va := mem.Addr(0x400000)
	for i := 0; i < 40; i++ {
		fut := h.Access(0, 0x600, va, false, now)
		h.RetireMemOp(0, 0x600, va)
		if fut != nil {
			for !fut.DoneBy(now) {
				h.Tick(now)
				now++
			}
		}
		va += mem.Addr(mem.Page4K) * 3
		now += 10
	}
	if h.Stats().StridePrefDroppedTLB == 0 {
		t.Error("TLB2 gate never dropped a far-stride prefetch")
	}
}

func TestFillQueueCapacityRespected(t *testing.T) {
	h := testHier(prefetch.None{})
	// Saturate with independent misses; the L2 fill queue must never
	// exceed its capacity.
	var now uint64
	va := mem.Addr(0x1000000)
	for now = 0; now < 5000; now++ {
		h.Access(0, 0x700, va, false, now)
		va += 4096
		if h.l2fq[0].len() > h.cfg.L2FillQueueLen {
			t.Fatalf("L2 fill queue overflow: %d > %d", h.l2fq[0].len(), h.cfg.L2FillQueueLen)
		}
		if h.l3fq.len() > h.cfg.L3FillQueueLen {
			t.Fatalf("L3 fill queue overflow")
		}
		h.Tick(now)
	}
}

func TestSystemDrains(t *testing.T) {
	// Fire a burst of mixed traffic and verify the hierarchy reaches a
	// quiescent state (no stuck entries, no leaked futures).
	pf := prefetch.NewNextLine(mem.Page4K)
	h := testHier(pf)
	var now uint64
	var futs []*dram.Future
	va := mem.Addr(0x2000000)
	for i := 0; i < 300; i++ {
		if fut := h.Access(0, 0x800+uint64(i%8)*4, va, i%3 == 0, now); fut != nil {
			futs = append(futs, fut)
		}
		va += 64
		h.Tick(now)
		now++
	}
	for budget := 0; budget < 300000 && !h.Drained(); budget++ {
		h.Tick(now)
		now++
	}
	if !h.Drained() {
		t.Fatal("hierarchy did not drain")
	}
	for i, f := range futs {
		if !f.Resolved() {
			t.Fatalf("future %d never resolved", i)
		}
	}
}

func TestPrefetchQueueOldestCancelled(t *testing.T) {
	q := newPrefetchQueue(3)
	q.push(1)
	q.push(2)
	q.push(3)
	q.push(4) // cancels 1
	if q.Cancelled != 1 {
		t.Errorf("Cancelled = %d, want 1", q.Cancelled)
	}
	if q.contains(1) {
		t.Error("cancelled entry still present")
	}
	l, ok := q.pop()
	if !ok || l != 2 {
		t.Errorf("pop = %d,%v want 2,true", l, ok)
	}
}

func TestFillQueueCAM(t *testing.T) {
	q := newFillQueue(4)
	e := &fillEntry{line: 42, fut: dram.Pending()}
	q.push(e)
	if q.find(42) != e {
		t.Error("CAM search missed entry")
	}
	if q.find(43) != nil {
		t.Error("CAM search false positive")
	}
	e.fut.Resolve(10)
	// A resolution implies a new DRAM bus-tick epoch; pass the bumped epoch
	// as the hierarchy would.
	ready := q.popReady(10, 1)
	if len(ready) != 1 || ready[0] != e {
		t.Errorf("popReady returned %d entries", len(ready))
	}
	if q.len() != 0 {
		t.Error("entry not removed by popReady")
	}
}

func TestL3PolicySelection(t *testing.T) {
	for _, pol := range []string{"5P", "LRU", "DRRIP"} {
		cfg := DefaultConfig(1, mem.Page4K)
		cfg.L3Policy = pol
		h := New(cfg, nil, nil, nil)
		if got := h.l3.Policy().Name(); got != pol {
			t.Errorf("L3 policy = %s, want %s", got, pol)
		}
	}
}

func TestUnknownL3PolicyPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("unknown L3 policy did not panic")
		}
	}()
	cfg := DefaultConfig(1, mem.Page4K)
	cfg.L3Policy = "FIFO"
	New(cfg, nil, nil, nil)
}

// scriptedPF returns a fixed target list on the first eligible access.
type scriptedPF struct {
	targets  []mem.LineAddr
	accesses int
}

func (s *scriptedPF) Name() string { return "scripted" }
func (s *scriptedPF) OnAccess(a prefetch.AccessInfo) []mem.LineAddr {
	s.accesses++
	t := s.targets
	s.targets = nil
	return t
}
func (s *scriptedPF) OnFill(mem.LineAddr, bool) {}
