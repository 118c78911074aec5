package experiments

import (
	"sync"

	"haswellep/internal/addr"
	"haswellep/internal/coherence"
	"haswellep/internal/machine"
	"haswellep/internal/mesif"
	"haswellep/internal/topology"
)

// The placed-state memo. Every memory measurement of the paper places its
// buffer the same way first (Section V-B: write it, then clflush it, so the
// data sits in memory), and a placement of a 16 MiB buffer is ~520k
// transactions — most of a cold what-if. The placement's outcome is a pure
// function of the machine configuration, the owner core, and the region,
// so the first placement of a (config, recipe, owner, region) snapshots
// the machine it produced and every repeat restores that snapshot
// (mesif.Engine.Restore) instead of replaying the transactions.

// placedMemoBudget bounds the snapshot bytes the memo retains
// (machine.Snapshot.Bytes); the oldest entries are evicted beyond it. A
// Modified+FlushAll placement leaves nothing resident, so its snapshot is
// essentially the counters (a few KiB on the test system) and the budget
// holds thousands of recipes.
const placedMemoBudget = 32 << 20

// recipeModifiedFlushAll names the Fresh + Modified + FlushAll recipe in
// memo keys.
const recipeModifiedFlushAll = "modified+flushall"

// placedKey identifies a placed state: everything the placement's outcome
// depends on (the configuration with its protocol normalized, so "" and
// "mesif" share entries). The measuring core is deliberately absent, so
// the latency, bandwidth, and placement what-ifs of one home node share an
// entry.
type placedKey struct {
	cfg    machine.Config
	recipe string
	owner  topology.CoreID
	base   addr.PAddr
	size   int64
}

// placedEntry is one memoized placement.
type placedEntry struct {
	snap mesif.Snapshot
	// tx is the number of transactions the placement ran; a restore
	// advances the engine's sequence number by it.
	tx    uint64
	bytes int64
}

// placedStats counts memo traffic. issued is the placement transactions
// the memoized recipes actually ran (misses and bypasses); a hit runs
// none.
type placedStats struct {
	hits, misses, bypassed, issued uint64
}

// placedStore is a byte-budgeted, concurrency-safe memo of placed states.
// Entries are immutable once stored, and Restore copies out of them, so
// concurrent what-if points restore one entry freely.
type placedStore struct {
	mu      sync.Mutex
	budget  int64
	bytes   int64
	entries map[placedKey]*placedEntry
	order   []placedKey // insertion order, oldest first
	stats   placedStats
}

func newPlacedStore(budget int64) *placedStore {
	return &placedStore{budget: budget, entries: map[placedKey]*placedEntry{}}
}

// placedMemo is the process-wide memo every env built by newEnv consults.
var placedMemo = newPlacedStore(placedMemoBudget)

// lookup returns the key's entry, nil on a miss.
func (s *placedStore) lookup(k placedKey) *placedEntry {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.entries[k]
}

// store adds an entry (a racing miss on the same key may already have),
// evicting the oldest entries to stay within the budget.
func (s *placedStore) store(k placedKey, e *placedEntry) {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.entries[k] != nil || e.bytes > s.budget {
		return
	}
	for s.bytes+e.bytes > s.budget {
		old := s.order[0]
		s.order = s.order[1:]
		s.bytes -= s.entries[old].bytes
		delete(s.entries, old)
	}
	s.entries[k] = e
	s.order = append(s.order, k)
	s.bytes += e.bytes
}

// placedOutcome classifies one placeFlushed call for the memo's counters.
type placedOutcome int

const (
	placedHit placedOutcome = iota
	placedMiss
	placedBypassed
)

// record books one placement's outcome and the transactions it issued.
func (s *placedStore) record(o placedOutcome, issued uint64) {
	s.mu.Lock()
	defer s.mu.Unlock()
	switch o {
	case placedHit:
		s.stats.hits++
	case placedMiss:
		s.stats.misses++
	case placedBypassed:
		s.stats.bypassed++
	}
	s.stats.issued += issued
}

// snapshotStats returns the memo's counters.
func (s *placedStore) snapshotStats() placedStats {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.stats
}

// placeFlushed places r in memory the paper's way — every line written by
// owner, then flushed (Modified + FlushAll) — on a machine the caller has
// just Fresh-ed, so the memoized recipe is Fresh + Modified + FlushAll. A
// repeat of a placed (config, owner, region) restores the memoized
// snapshot; a miss runs the placement exactly as an unmemoized env would,
// under the attached checker, and memoizes whatever it produced (unless
// the checker found a hard violation on the way).
//
// The placement is replayed instead, the memo neither consulted nor
// filled, whenever a restore could not stand in for the transactions: the
// env has no memo, the engine has a fault injector (its random stream
// advances per transaction), an access observer such as a flight recorder
// is attached (a repro bundle must contain the placement events, or its
// replay diverges), or the machine was not just Fresh-ed.
func (env *Env) placeFlushed(owner topology.CoreID, r addr.Region) {
	memo := env.memo
	if memo == nil {
		env.replayFlushed(owner, r)
		return
	}
	if env.E.Faults != nil || env.E.AfterAccess != nil || !env.justFresh() {
		memo.record(placedBypassed, env.replayFlushed(owner, r))
		return
	}
	cfg := env.M.Cfg
	cfg.Protocol = coherence.Normalize(cfg.Protocol)
	k := placedKey{cfg: cfg, recipe: recipeModifiedFlushAll, owner: owner, base: r.Base, size: r.Size}
	if e := memo.lookup(k); e != nil {
		s := e.snap
		s.Seq = env.E.Seq() + e.tx
		env.E.Restore(s)
		memo.record(placedHit, 0)
		return
	}
	seq, hard := env.E.Seq(), env.Check.HardCount
	memo.record(placedMiss, env.replayFlushed(owner, r))
	if env.Check.HardCount != hard {
		return
	}
	snap := env.E.Snapshot()
	memo.store(k, &placedEntry{snap: snap, tx: env.E.Seq() - seq, bytes: snap.Machine.Bytes()})
}

// replayFlushed runs the Modified + FlushAll placement and returns the
// number of transactions it issued.
func (env *Env) replayFlushed(owner topology.CoreID, r addr.Region) uint64 {
	before := env.P.Issued()
	env.P.Modified(owner, r)
	env.P.FlushAll(owner, r)
	return env.P.Issued() - before
}
