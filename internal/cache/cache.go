// Package cache implements the set-associative write-back caches of the
// simulated memory hierarchy, together with the replacement policies the
// paper evaluates at the L3: LRU, DRRIP, and the paper's own 5P policy
// (section 5.2). Every line carries a prefetch bit — the L2 prefetchers are
// gated on it (section 5.6) — and a dirty bit for write-back traffic.
package cache

import (
	"fmt"

	"bopsim/internal/mem"
)

// Line is the metadata of one cache line (the simulator stores no data).
type Line struct {
	Addr     mem.LineAddr // full line address (used as the tag)
	Valid    bool
	Dirty    bool
	Prefetch bool // set when inserted by a prefetch, cleared on demand use
	Core     int  // core that caused the insertion (for core-aware policies)
}

// InsertInfo describes the block being inserted. Core and IsPrefetch feed
// policy decisions; Dirty only initializes the line's dirty bit.
type InsertInfo struct {
	Core       int
	IsPrefetch bool // block was fetched by a prefetch request
	Dirty      bool // block arrives modified (a write-back from above)
}

// Policy decides victim selection and insertion/promotion ordering for one
// cache. Implementations own all per-set replacement state.
type Policy interface {
	// Name identifies the policy in reports ("LRU", "DRRIP", "5P", ...).
	Name() string
	// OnHit is called when way in set hits on a demand or prefetch access.
	OnHit(set, way int)
	// OnInsert is called after the cache writes a new line into way.
	OnInsert(set, way int, info InsertInfo)
	// Victim returns the way to evict in set; all ways are valid when it is
	// called (the cache fills invalid ways itself).
	Victim(set int) int
	// SaveState serializes the policy's replacement state for a checkpoint
	// (see state.go). RestoreState replaces it with a previously saved one,
	// rejecting state whose shape does not match this policy instance.
	SaveState() PolicyState
	RestoreState(PolicyState) error
}

// Cache is a set-associative cache. It is not safe for concurrent use; the
// simulator is single-threaded by design (one global clock).
type Cache struct {
	name     string
	sets     int
	ways     int
	setMask  uint64
	lines    []Line // sets*ways, row-major
	policy   Policy
	Hits     uint64
	Misses   uint64
	Evicts   uint64
	PrefHits uint64 // hits on lines whose prefetch bit was still set
}

// New creates a cache of sizeBytes with the given associativity and policy.
// sizeBytes must be a multiple of ways*mem.LineSize and the resulting set
// count must be a power of two.
func New(name string, sizeBytes, ways int, policy Policy) *Cache {
	if sizeBytes <= 0 || ways <= 0 {
		panic("cache: non-positive geometry")
	}
	lines := sizeBytes / mem.LineSize
	if lines%ways != 0 {
		panic(fmt.Sprintf("cache %s: %d lines not divisible by %d ways", name, lines, ways))
	}
	sets := lines / ways
	if sets&(sets-1) != 0 {
		panic(fmt.Sprintf("cache %s: set count %d is not a power of two", name, sets))
	}
	return &Cache{
		name:    name,
		sets:    sets,
		ways:    ways,
		setMask: uint64(sets - 1),
		lines:   make([]Line, sets*ways),
		policy:  policy,
	}
}

// Name returns the cache's display name.
func (c *Cache) Name() string { return c.name }

// Sets returns the number of sets.
func (c *Cache) Sets() int { return c.sets }

// Ways returns the associativity.
func (c *Cache) Ways() int { return c.ways }

// Policy returns the replacement policy.
func (c *Cache) Policy() Policy { return c.policy }

// SetOf returns the set index for a line address.
func (c *Cache) SetOf(l mem.LineAddr) int { return int(uint64(l) & c.setMask) }

func (c *Cache) line(set, way int) *Line { return &c.lines[set*c.ways+way] }

// way returns the way of set holding l, or -1.
func (c *Cache) way(set int, l mem.LineAddr) int {
	lines := c.lines[set*c.ways : (set+1)*c.ways]
	for w := range lines {
		if lines[w].Valid && lines[w].Addr == l {
			return w
		}
	}
	return -1
}

// Probe is Lookup without the miss count. On a hit it updates statistics
// and replacement state exactly as Lookup does and returns the line; on a
// miss it returns nil and leaves Misses untouched, for a caller that counts
// the miss only once it commits to serving it.
func (c *Cache) Probe(l mem.LineAddr) *Line {
	set := c.SetOf(l)
	w := c.way(set, l)
	if w < 0 {
		return nil
	}
	ln := c.line(set, w)
	c.Hits++
	if ln.Prefetch {
		c.PrefHits++
	}
	c.policy.OnHit(set, w)
	return ln
}

// Lookup probes the cache. On a hit it applies the policy's hit update and
// returns a pointer to the line metadata; on a miss it returns nil. The
// returned pointer is only valid until the next Insert on the same set.
func (c *Cache) Lookup(l mem.LineAddr) *Line {
	ln := c.Probe(l)
	if ln == nil {
		c.Misses++
	}
	return ln
}

// Peek probes the cache without updating hit/miss statistics or replacement
// state. Used for the mandatory tag check before filling a prefetched block
// (paper section 5.4) and by tests.
func (c *Cache) Peek(l mem.LineAddr) *Line {
	set := c.SetOf(l)
	if w := c.way(set, l); w >= 0 {
		return c.line(set, w)
	}
	return nil
}

// Insert writes line l into the cache, evicting a victim if the set is
// full. It returns the evicted line (Valid=false if an invalid way was
// used). The caller must ensure l is not already present (see Peek); double
// insertion would duplicate the block, which the paper calls out as a
// correctness requirement.
func (c *Cache) Insert(l mem.LineAddr, info InsertInfo) (evicted Line) {
	set := c.SetOf(l)
	way := -1
	for w := 0; w < c.ways; w++ {
		if !c.line(set, w).Valid {
			way = w
			break
		}
	}
	if way < 0 {
		way = c.policy.Victim(set)
		if way < 0 || way >= c.ways {
			//bovet:allow hotalloc panic path for a broken replacement policy; never taken in a correct run
			panic(fmt.Sprintf("cache %s: policy %s returned bad victim %d", c.name, c.policy.Name(), way))
		}
		evicted = *c.line(set, way)
		c.Evicts++
	}
	*c.line(set, way) = Line{
		Addr:     l,
		Valid:    true,
		Dirty:    info.Dirty,
		Prefetch: info.IsPrefetch,
		Core:     info.Core,
	}
	c.policy.OnInsert(set, way, info)
	return evicted
}

// Invalidate removes line l if present and returns its prior metadata.
func (c *Cache) Invalidate(l mem.LineAddr) (old Line, ok bool) {
	ln := c.Peek(l)
	if ln == nil {
		return Line{}, false
	}
	old = *ln
	ln.Valid = false
	return old, true
}

// Reset clears all lines and statistics (policy state is left as-is; use a
// fresh cache for independent runs).
func (c *Cache) Reset() {
	for i := range c.lines {
		c.lines[i] = Line{}
	}
	c.Hits, c.Misses, c.Evicts, c.PrefHits = 0, 0, 0, 0
}
