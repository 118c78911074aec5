// Package statsbad is the negative fixture for the statsguard analyzer: a
// struct with a stats field may only be mutated from the designated
// bookkeeping methods (record, countSnoop, ResetStats, Restore).
package statsbad

type counters struct {
	reads int
	per   map[string]int
}

type engine struct {
	stats counters
}

// record is a designated bookkeeping method: allowed.
func (e *engine) record() {
	e.stats.reads++
}

// countSnoop is a designated bookkeeping method: allowed.
func (e *engine) countSnoop() {
	e.stats.reads += 2
}

// ResetStats is a designated bookkeeping method: allowed.
func (e *engine) ResetStats() {
	e.stats = counters{per: make(map[string]int)}
}

// Restore reinstalls snapshotted counters, a designated bookkeeping
// method: allowed.
func (e *engine) Restore(c counters) {
	e.stats = c
}

// sneakyIncrement bypasses record: reported.
func (e *engine) sneakyIncrement() {
	e.stats.reads++
}

// sneakyMapWrite mutates through an index expression: reported.
func (e *engine) sneakyMapWrite(k string) {
	e.stats.per[k]++
}

// sneakyAlias hands out a pointer into the stats field: reported.
func (e *engine) sneakyAlias() *int {
	return &e.stats.reads
}

// Reads only reads the counters: allowed.
func (e *engine) Reads() int {
	return e.stats.reads
}
