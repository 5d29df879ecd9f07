// Package cache implements the set-associative caches and miss-status
// holding registers (MSHRs) of the memory hierarchy.
//
// The caches are tag-only (the simulator never stores data): a cache is a
// timing filter that answers "hit or miss" and models capacity, conflict
// and coherence-free sharing behaviour. Replacement is true LRU within a
// set. Stores are write-through no-allocate (as GPGPU-Sim configures the
// Fermi L1 for global accesses), so Probe/Access distinguish loads, which
// update recency, from stores, which only check presence.
package cache

import "fmt"

// Cache is one tag array. Not safe for concurrent use; the simulator is
// single-threaded per GPU instance.
type Cache struct {
	assoc    int
	sets     int
	lineBits uint
	setMask  uint64
	tags     []uint64 // sets × assoc
	valid    []bool
	stamp    []int64 // LRU recency; larger = more recent
	clock    int64

	// Accesses and Misses count lookups via Access.
	Accesses int64
	Misses   int64
}

// New builds a cache of size bytes, assoc ways and lineSize-byte lines.
// size must equal sets*assoc*lineSize for a positive power-of-two number
// of sets.
func New(size, assoc, lineSize int) (*Cache, error) {
	if size <= 0 || assoc <= 0 || lineSize <= 0 {
		return nil, fmt.Errorf("cache: non-positive geometry (%d,%d,%d)", size, assoc, lineSize)
	}
	if lineSize&(lineSize-1) != 0 {
		return nil, fmt.Errorf("cache: line size %d not a power of two", lineSize)
	}
	if size%(assoc*lineSize) != 0 {
		return nil, fmt.Errorf("cache: size %d not divisible by assoc*line (%d)", size, assoc*lineSize)
	}
	sets := size / (assoc * lineSize)
	if sets&(sets-1) != 0 {
		return nil, fmt.Errorf("cache: set count %d not a power of two", sets)
	}
	lb := uint(0)
	for 1<<lb != lineSize {
		lb++
	}
	n := sets * assoc
	return &Cache{
		assoc:    assoc,
		sets:     sets,
		lineBits: lb,
		setMask:  uint64(sets - 1),
		tags:     make([]uint64, n),
		valid:    make([]bool, n),
		stamp:    make([]int64, n),
	}, nil
}

// MustNew is New that panics on error; for configurations already
// validated by config.Validate.
func MustNew(size, assoc, lineSize int) *Cache {
	c, err := New(size, assoc, lineSize)
	if err != nil {
		panic(err)
	}
	return c
}

func (c *Cache) index(addr uint64) (set int, tag uint64) {
	line := addr >> c.lineBits
	return int(line & c.setMask), line // full line id as tag (simplest, unambiguous)
}

// Access looks up addr; on hit it refreshes LRU recency and returns true.
// It counts toward Accesses/Misses.
func (c *Cache) Access(addr uint64) bool {
	c.Accesses++
	set, tag := c.index(addr)
	base := set * c.assoc
	for w := 0; w < c.assoc; w++ {
		if c.valid[base+w] && c.tags[base+w] == tag {
			c.clock++
			c.stamp[base+w] = c.clock
			return true
		}
	}
	c.Misses++
	return false
}

// Probe reports presence without touching recency or counters.
func (c *Cache) Probe(addr uint64) bool {
	set, tag := c.index(addr)
	base := set * c.assoc
	for w := 0; w < c.assoc; w++ {
		if c.valid[base+w] && c.tags[base+w] == tag {
			return true
		}
	}
	return false
}

// Fill installs addr's line, evicting the LRU way if the set is full.
// Filling an already-present line refreshes its recency.
func (c *Cache) Fill(addr uint64) {
	set, tag := c.index(addr)
	base := set * c.assoc
	c.clock++
	victim, oldest := base, c.stamp[base]
	for w := 0; w < c.assoc; w++ {
		i := base + w
		if c.valid[i] && c.tags[i] == tag {
			c.stamp[i] = c.clock
			return
		}
		if !c.valid[i] {
			victim, oldest = i, -1 // invalid way wins immediately
			continue
		}
		if oldest >= 0 && c.stamp[i] < oldest {
			victim, oldest = i, c.stamp[i]
		}
	}
	c.tags[victim] = tag
	c.valid[victim] = true
	c.stamp[victim] = c.clock
}

// Invalidate drops addr's line if present; returns whether it was present.
func (c *Cache) Invalidate(addr uint64) bool {
	set, tag := c.index(addr)
	base := set * c.assoc
	for w := 0; w < c.assoc; w++ {
		if c.valid[base+w] && c.tags[base+w] == tag {
			c.valid[base+w] = false
			return true
		}
	}
	return false
}

// Reset clears contents and counters.
func (c *Cache) Reset() {
	for i := range c.valid {
		c.valid[i] = false
		c.stamp[i] = 0
		c.tags[i] = 0
	}
	c.clock = 0
	c.Accesses = 0
	c.Misses = 0
}

// Sets returns the number of sets (for tests).
func (c *Cache) Sets() int { return c.sets }

// Assoc returns the associativity (for tests).
func (c *Cache) Assoc() int { return c.assoc }
