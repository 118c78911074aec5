package mesif

import "haswellep/internal/machine"

// Snapshot is an engine's restorable state: the machine's sparse cached
// state plus the engine-side statistics, working set, and transaction
// sequence number. The fault injector's state is not part of it — an
// engine with an injector advances the injector's random stream on every
// transaction, which no restore can reproduce — and neither is the dirty
// set, which only lives for the duration of one transaction.
type Snapshot struct {
	Machine    machine.Snapshot
	WorkingSet int64
	Seq        uint64
	stats      engineStats
}

// Snapshot captures the engine's and its machine's state.
func (e *Engine) Snapshot() Snapshot {
	return Snapshot{Machine: e.M.Snapshot(), WorkingSet: e.WorkingSet, Seq: e.seq, stats: e.stats}
}

// Restore returns the engine and its machine to a snapshot's state
// (machine.Machine.Restore, then statistics, working set, and sequence
// number). The snapshot must come from an engine on a machine of the same
// structure. Hooks do not fire: to an attached observer the restored
// transactions simply never ran, except that Seq has moved on.
func (e *Engine) Restore(s Snapshot) {
	e.M.Restore(s.Machine)
	e.stats = s.stats
	e.WorkingSet = s.WorkingSet
	e.seq = s.Seq
	e.dirty = e.dirty[:0]
}
