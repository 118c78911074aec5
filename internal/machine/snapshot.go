package machine

import (
	"fmt"
	"unsafe"

	"haswellep/internal/cache"
	"haswellep/internal/directory"
)

// Snapshot is the sparse cached state of a machine: what is resident, not
// a copy of the cache arrays. It holds every valid way of every L1D, L2,
// and L3 slice (with its set and LRU position), every home agent's
// in-memory directory entries and HitME entries, and every counter —
// cache hits/misses/evictions, DRAM reads/writes, directory writes, and
// HitME statistics. The allocation map is not part of it: Restore, like
// Reset, keeps allocations valid.
//
// A snapshot is immutable once taken; Restore copies out of it, so one
// snapshot may be restored into many machines, concurrently.
type Snapshot struct {
	// Caches holds the L1D then the L2 of every core in CoreID order,
	// then every L3 slice in SliceID order.
	Caches []cache.Snapshot
	// Agents is indexed by global AgentID.
	Agents []AgentSnapshot
}

// AgentSnapshot is one home agent's share of a Snapshot. Dir and HitME
// stay zero when the agent has no such structure.
type AgentSnapshot struct {
	DRAMReads, DRAMWrites uint64
	Dir                   directory.InMemorySnapshot
	HitME                 directory.HitMESnapshot
}

// caches lists the machine's caches in Snapshot.Caches order.
func (m *Machine) caches() []*cache.Cache {
	out := make([]*cache.Cache, 0, 2*len(m.Cores)+len(m.L3))
	for _, cc := range m.Cores {
		out = append(out, cc.L1D, cc.L2)
	}
	for _, sl := range m.L3 {
		out = append(out, sl.Cache)
	}
	return out
}

// Snapshot captures the machine's resident cache and directory state and
// its counters.
func (m *Machine) Snapshot() Snapshot {
	caches := m.caches()
	s := Snapshot{Caches: make([]cache.Snapshot, len(caches)), Agents: make([]AgentSnapshot, len(m.HAs))}
	for i, c := range caches {
		s.Caches[i] = c.Snapshot()
	}
	for i, ha := range m.HAs {
		a := &s.Agents[i]
		a.DRAMReads, a.DRAMWrites = ha.DRAM.Stats()
		if ha.Dir != nil {
			a.Dir = ha.Dir.Snapshot()
		}
		if ha.HitME != nil {
			a.HitME = ha.HitME.Snapshot()
		}
	}
	return s
}

// Restore returns the machine to the snapshot's state: Reset (which fires
// OnReset), then every saved line, directory entry, HitME entry, and
// counter reinstalled. Its cost is the Reset plus time proportional to the
// resident state the snapshot holds. The snapshot must come from a machine
// of the same structure (Reconfigure's notion); a different cache or agent
// count panics.
//
// Restore is not a transaction: the engine's hooks do not fire for the
// reinstalled state, and a flight recorder sees only the reset.
func (m *Machine) Restore(s Snapshot) {
	caches := m.caches()
	if len(s.Caches) != len(caches) || len(s.Agents) != len(m.HAs) {
		panic(fmt.Sprintf("machine: snapshot of %d caches and %d agents restored into %v",
			len(s.Caches), len(s.Agents), m))
	}
	m.Reset()
	for i, c := range caches {
		c.Restore(s.Caches[i])
	}
	for i, ha := range m.HAs {
		a := &s.Agents[i]
		ha.DRAM.RestoreStats(a.DRAMReads, a.DRAMWrites)
		if ha.Dir != nil {
			ha.Dir.Restore(a.Dir)
		}
		if ha.HitME != nil {
			ha.HitME.Restore(a.HitME)
		}
	}
}

// Bytes estimates the heap the snapshot retains, for callers that budget
// memoized snapshots.
func (s Snapshot) Bytes() int64 {
	n := int64(unsafe.Sizeof(s)) +
		int64(len(s.Caches))*int64(unsafe.Sizeof(cache.Snapshot{})) +
		int64(len(s.Agents))*int64(unsafe.Sizeof(AgentSnapshot{}))
	for _, c := range s.Caches {
		n += int64(len(c.Lines)) * int64(unsafe.Sizeof(cache.Line{}))
	}
	for _, a := range s.Agents {
		n += int64(len(a.Dir.Entries))*int64(unsafe.Sizeof(directory.DirEntry{})) +
			int64(len(a.HitME.Entries))*int64(unsafe.Sizeof(directory.HitMEEntry{}))
	}
	return n
}
