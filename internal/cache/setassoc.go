package cache

import (
	"fmt"

	"haswellep/internal/addr"
)

// Line is one cache line entry.
type Line struct {
	Addr  addr.LineAddr
	State State
	// CoreValid is the per-core presence bitmask maintained by the
	// inclusive L3 ("core valid bits", Section IV-A / [7]). Unused in
	// L1/L2 caches. Bit i corresponds to the die-local core i.
	CoreValid uint32
}

// set is one associativity set; ways are kept in LRU order, most recently
// used first.
type set struct {
	ways []Line
	// filt is a 64-bit tag-presence filter over the resident ways: bit
	// filterBit(addr) is set for every cached line. A clear bit proves a
	// miss without scanning the ways — the common case on the coherence
	// engine's cross-node probes and the invariant checker's per-line
	// gathers, where most caches do not hold the line. False positives
	// only cost the scan; the filter is recomputed exactly on every
	// removal, so false negatives cannot occur.
	filt uint64
}

// filterBit hashes a line address to one of 64 filter bits. The set index
// uses the low address bits, so lines colliding in a set differ in high
// bits; the multiplicative hash folds those in.
func filterBit(l addr.LineAddr) uint64 {
	return 1 << ((uint64(l) * 0x9e3779b97f4a7c15) >> 58)
}

// recompute rebuilds the presence filter from the resident ways.
func (s *set) recompute() {
	f := uint64(0)
	for i := range s.ways {
		f |= filterBit(s.ways[i].Addr)
	}
	s.filt = f
}

// Geometry describes a cache's size parameters.
type Geometry struct {
	// SizeBytes is the total capacity.
	SizeBytes int64
	// Ways is the associativity.
	Ways int
	// Name labels the cache in errors and dumps (e.g. "L1D", "L2",
	// "L3 slice 4").
	Name string
}

// Sets returns the number of associativity sets.
func (g Geometry) Sets() int {
	lines := g.SizeBytes / addr.LineSize
	return int(lines) / g.Ways
}

// Validate checks the geometry is a usable power-of-two configuration.
func (g Geometry) Validate() error {
	if g.SizeBytes <= 0 || g.Ways <= 0 {
		return fmt.Errorf("cache %s: size and ways must be positive", g.Name)
	}
	if g.SizeBytes%addr.LineSize != 0 {
		return fmt.Errorf("cache %s: size %d not a multiple of the line size", g.Name, g.SizeBytes)
	}
	lines := g.SizeBytes / addr.LineSize
	if lines%int64(g.Ways) != 0 {
		return fmt.Errorf("cache %s: %d lines not divisible by %d ways", g.Name, lines, g.Ways)
	}
	sets := lines / int64(g.Ways)
	if sets&(sets-1) != 0 {
		return fmt.Errorf("cache %s: set count %d not a power of two", g.Name, sets)
	}
	return nil
}

// Cache is a set-associative cache with true LRU replacement. It tracks
// line presence and MESIF state only; data contents are immaterial to the
// timing behavior being modeled.
type Cache struct {
	geom    Geometry
	sets    []set
	setMask uint64
	// Stats counters.
	hits, misses, evictions uint64
}

// New builds an empty cache with the given geometry.
func New(g Geometry) *Cache {
	if err := g.Validate(); err != nil {
		panic("cache.New: " + err.Error())
	}
	n := g.Sets()
	c := &Cache{geom: g, sets: make([]set, n), setMask: uint64(n - 1)}
	for i := range c.sets {
		c.sets[i].ways = make([]Line, 0, g.Ways)
	}
	return c
}

// Geometry returns the cache's geometry.
func (c *Cache) Geometry() Geometry { return c.geom }

// setOf returns the set index for a line address.
func (c *Cache) setOf(l addr.LineAddr) *set {
	return &c.sets[uint64(l)&c.setMask]
}

// Lookup returns the line's entry without touching LRU order. The boolean
// reports presence with a valid state.
func (c *Cache) Lookup(l addr.LineAddr) (Line, bool) {
	s := c.setOf(l)
	if s.filt&filterBit(l) == 0 {
		return Line{}, false
	}
	for i := range s.ways {
		if s.ways[i].Addr == l && s.ways[i].State.Valid() {
			return s.ways[i], true
		}
	}
	return Line{}, false
}

// Contains reports whether the line is present in a valid state.
func (c *Cache) Contains(l addr.LineAddr) bool {
	_, ok := c.Lookup(l)
	return ok
}

// StateOf returns the line's state (Invalid when absent).
func (c *Cache) StateOf(l addr.LineAddr) State {
	w, ok := c.Lookup(l)
	if !ok {
		return Invalid
	}
	return w.State
}

// Touch records a use of the line, moving it to MRU position. It returns
// true if the line was present.
func (c *Cache) Touch(l addr.LineAddr) bool {
	s := c.setOf(l)
	if s.filt&filterBit(l) == 0 {
		c.misses++
		return false
	}
	for i, w := range s.ways {
		if w.Addr == l && w.State.Valid() {
			copy(s.ways[1:i+1], s.ways[:i])
			s.ways[0] = w
			c.hits++
			return true
		}
	}
	c.misses++
	return false
}

// Insert installs (or updates) a line in the given state at MRU position.
// If the set is full, the LRU way is evicted and returned with ok=true.
// Inserting over an existing entry replaces its state and yields no victim.
func (c *Cache) Insert(line Line) (victim Line, evicted bool) {
	if !line.State.Valid() {
		panic(fmt.Sprintf("cache %s: inserting invalid line %#x", c.geom.Name, line.Addr))
	}
	s := c.setOf(line.Addr)
	if s.filt&filterBit(line.Addr) != 0 {
		for i, w := range s.ways {
			if w.Addr == line.Addr && w.State.Valid() {
				copy(s.ways[1:i+1], s.ways[:i])
				s.ways[0] = line
				return Line{}, false
			}
		}
	}
	if len(s.ways) < c.geom.Ways {
		s.ways = append(s.ways, Line{})
		copy(s.ways[1:], s.ways[:len(s.ways)-1])
		s.ways[0] = line
		s.filt |= filterBit(line.Addr)
		return Line{}, false
	}
	victim = s.ways[len(s.ways)-1]
	copy(s.ways[1:], s.ways[:len(s.ways)-1])
	s.ways[0] = line
	s.recompute()
	c.evictions++
	return victim, true
}

// Update rewrites the entry of a present line in place (state and core-valid
// bits) without changing LRU order. It returns false when absent.
func (c *Cache) Update(l addr.LineAddr, fn func(*Line)) bool {
	s := c.setOf(l)
	for i := range s.ways {
		if s.ways[i].Addr == l && s.ways[i].State.Valid() {
			fn(&s.ways[i])
			if !s.ways[i].State.Valid() {
				// State transitioned to Invalid: drop the way.
				copy(s.ways[i:], s.ways[i+1:])
				s.ways = s.ways[:len(s.ways)-1]
				s.recompute()
			}
			return true
		}
	}
	return false
}

// Invalidate removes the line, returning its last entry.
func (c *Cache) Invalidate(l addr.LineAddr) (Line, bool) {
	s := c.setOf(l)
	if s.filt&filterBit(l) == 0 {
		return Line{}, false
	}
	for i, w := range s.ways {
		if w.Addr == l && w.State.Valid() {
			copy(s.ways[i:], s.ways[i+1:])
			s.ways = s.ways[:len(s.ways)-1]
			s.recompute()
			return w, true
		}
	}
	return Line{}, false
}

// VictimIfMiss returns the line that would be evicted if l were inserted
// now, without modifying the cache.
func (c *Cache) VictimIfMiss(l addr.LineAddr) (Line, bool) {
	s := c.setOf(l)
	if s.filt&filterBit(l) != 0 {
		for i := range s.ways {
			if s.ways[i].Addr == l && s.ways[i].State.Valid() {
				return Line{}, false
			}
		}
	}
	if len(s.ways) < c.geom.Ways {
		return Line{}, false
	}
	return s.ways[len(s.ways)-1], true
}

// Len returns the number of valid lines currently cached.
func (c *Cache) Len() int {
	n := 0
	for i := range c.sets {
		n += len(c.sets[i].ways)
	}
	return n
}

// Clear removes every line.
func (c *Cache) Clear() {
	for i := range c.sets {
		c.sets[i].ways = c.sets[i].ways[:0]
		c.sets[i].filt = 0
	}
}

// ForEach calls fn for every valid line. Iteration order is set-major,
// MRU-first; fn must not mutate the cache.
func (c *Cache) ForEach(fn func(Line)) {
	for i := range c.sets {
		for _, w := range c.sets[i].ways {
			fn(w)
		}
	}
}

// Stats returns hit/miss/eviction counters accumulated by Touch/Insert.
func (c *Cache) Stats() (hits, misses, evictions uint64) {
	return c.hits, c.misses, c.evictions
}

// ResetStats zeroes the statistics counters.
func (c *Cache) ResetStats() { c.hits, c.misses, c.evictions = 0, 0, 0 }

// Snapshot is the sparse resident state of one cache: every valid way,
// set-major and MRU-first within a set (a line's set follows from its
// address, its LRU position from its place in the run), plus the
// statistics counters. It holds nothing for empty sets, so an empty cache
// snapshots to its counters alone.
type Snapshot struct {
	Lines                   []Line
	Hits, Misses, Evictions uint64
}

// Snapshot captures the cache's resident lines and counters. The returned
// value shares nothing with the cache.
func (c *Cache) Snapshot() Snapshot {
	s := Snapshot{Hits: c.hits, Misses: c.misses, Evictions: c.evictions}
	if n := c.Len(); n > 0 {
		s.Lines = make([]Line, 0, n)
		for i := range c.sets {
			s.Lines = append(s.Lines, c.sets[i].ways...)
		}
	}
	return s
}

// Restore replaces the cache's contents and counters with a snapshot taken
// from a cache of the same geometry: Clear, then every saved line appended
// to its set in saved (MRU-first) order, so LRU order and the presence
// filters come back exactly. The cost is the Clear plus one append per
// saved line.
func (c *Cache) Restore(s Snapshot) {
	c.Clear()
	for _, ln := range s.Lines {
		set := c.setOf(ln.Addr)
		if len(set.ways) == c.geom.Ways {
			panic(fmt.Sprintf("cache %s: snapshot overfills the set of line %#x", c.geom.Name, ln.Addr))
		}
		set.ways = append(set.ways, ln)
		set.filt |= filterBit(ln.Addr)
	}
	c.hits, c.misses, c.evictions = s.Hits, s.Misses, s.Evictions
}
