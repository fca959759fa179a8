package cache

import (
	"reflect"
	"testing"

	"bopsim/internal/mem"
	"bopsim/internal/rng"
)

// TestProbeAndDirtyInsertMatchTwoStepForms drives two identical caches with
// one seeded stream, under each policy the hierarchy uses. The reference
// cache takes the two-step forms: Lookup, and on a miss Insert followed by
// Peek().Dirty = true. The other takes the fused forms: Probe, and an
// Insert with InsertInfo.Dirty. Apart from the reference's miss count, the
// two caches must hold identical lines, counters and replacement state
// after every step, and Probe must never count a miss.
func TestProbeAndDirtyInsertMatchTwoStepForms(t *testing.T) {
	const sets, ways = 16, 4
	for name, mk := range map[string]func() Policy{
		"LRU":   func() Policy { return NewLRU(sets, ways) },
		"DRRIP": func() Policy { return NewDRRIP(sets, ways, 7) },
		"5P":    func() Policy { return NewFiveP(sets, ways, 2, 7) },
	} {
		t.Run(name, func(t *testing.T) {
			ref := New("ref", sets*ways*mem.LineSize, ways, mk())
			fused := New("fused", sets*ways*mem.LineSize, ways, mk())
			r := rng.New(11)
			var misses uint64
			for i := 0; i < 5000; i++ {
				l := mem.LineAddr(r.Intn(sets * ways * 3))
				info := InsertInfo{Core: r.Intn(2), IsPrefetch: r.OneIn(4)}
				dirty := r.OneIn(3)
				want, got := ref.Lookup(l), fused.Probe(l)
				if (want == nil) != (got == nil) {
					t.Fatalf("step %d: Lookup hit=%v, Probe hit=%v", i, want != nil, got != nil)
				}
				if want == nil {
					misses++
					ref.Insert(l, info)
					if dirty {
						ref.Peek(l).Dirty = true
					}
					info.Dirty = dirty
					fused.Insert(l, info)
				}
				if fused.Misses != 0 {
					t.Fatalf("step %d: Probe counted %d misses", i, fused.Misses)
				}
				if ref.Misses != misses {
					t.Fatalf("step %d: Lookup counted %d misses, want %d", i, ref.Misses, misses)
				}
				a, b := ref.SaveState(), fused.SaveState()
				b.Misses = a.Misses
				if !reflect.DeepEqual(a, b) {
					t.Fatalf("step %d: fused cache state diverged from the two-step reference", i)
				}
			}
		})
	}
}
