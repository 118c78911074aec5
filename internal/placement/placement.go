// Package placement implements the paper's data placement and coherence
// state control methodology (Section V-B): placing every cache line of a
// buffer in a fully specified combination of core, cache level, and MESIF
// coherence state before a measurement.
//
//   - State modified is enforced by writing the data.
//   - State exclusive is generated by writing the data (invalidating all
//     other copies), removing the modified copy using clflush, and reading
//     the data back.
//   - States shared and forward are created by caching data in state
//     exclusive and having one or more other cores read it; the order of
//     accesses determines which core (node) ends up with the forward copy.
//
// The data set size determines the cache level the lines settle in, exactly
// as on hardware: lines that no longer fit a level are evicted naturally by
// the placement accesses themselves (dirty lines move down with writebacks
// that clear core-valid bits, clean lines leave silently and leave stale
// core-valid bits behind).
//
//hsw:tier engine
package placement

import (
	"haswellep/internal/addr"
	"haswellep/internal/cache"
	"haswellep/internal/mesif"
	"haswellep/internal/topology"
)

// Placer places data through a protocol engine.
type Placer struct {
	E *mesif.Engine

	// issued counts the transactions the placer has issued (see Issued).
	issued uint64
}

// New builds a placer for the engine.
func New(e *mesif.Engine) *Placer { return &Placer{E: e} }

// Issued returns how many transactions the placer has issued to its
// engine: one per line per placement pass. It is a deterministic work
// counter — the same placements issue the same count on any host.
func (p *Placer) Issued() uint64 { return p.issued }

// forEachLine runs fn over the region's lines in ascending order.
func forEachLine(r addr.Region, fn func(addr.LineAddr)) {
	end := r.End().AlignUp().Line()
	for l := r.Base.AlignDown().Line(); l < end; l++ {
		fn(l)
	}
}

// pass issues op by core over the region's lines in ascending order.
func (p *Placer) pass(op mesif.Op, core topology.CoreID, r addr.Region) {
	forEachLine(r, func(l addr.LineAddr) {
		switch op {
		case mesif.OpRead:
			p.E.Read(core, l)
		case mesif.OpWrite:
			p.E.Write(core, l)
		case mesif.OpFlush:
			p.E.Flush(core, l)
		}
		p.issued++
	})
}

// Modified places every line of the region in state modified, owned by the
// given core. Lines beyond the private-cache capacity are naturally evicted
// into the core's node L3 (state M, core-valid bit cleared by the
// writeback).
func (p *Placer) Modified(core topology.CoreID, r addr.Region) {
	p.E.WorkingSet = r.Size
	p.pass(mesif.OpWrite, core, r)
}

// Exclusive places every line of the region in state exclusive, cached by
// the given core: write, flush, and read back (Section V-B). Clean
// evictions during the read pass are silent, so lines that no longer fit
// the private caches remain in the L3 with a stale core-valid bit — the
// precondition of the paper's 44.4 ns core-snoop case.
func (p *Placer) Exclusive(core topology.CoreID, r addr.Region) {
	p.E.WorkingSet = r.Size
	p.pass(mesif.OpWrite, core, r)
	p.pass(mesif.OpFlush, core, r)
	p.pass(mesif.OpRead, core, r)
}

// Shared places every line in a shared state across the given cores: the
// first core caches the data exclusively, then the remaining cores read it
// in order. The forward copy ends up with the last reader's node; the
// cores may span multiple NUMA nodes (the paper's Table IV setup).
func (p *Placer) Shared(r addr.Region, cores ...topology.CoreID) {
	if len(cores) == 0 {
		return
	}
	p.Exclusive(cores[0], r)
	for _, c := range cores[1:] {
		p.E.WorkingSet = r.Size
		p.pass(mesif.OpRead, c, r)
	}
}

// FlushAll removes every line of the region from all caches (data ends up
// only in memory, directory reset to remote-invalid).
func (p *Placer) FlushAll(core topology.CoreID, r addr.Region) {
	p.E.WorkingSet = r.Size
	p.pass(mesif.OpFlush, core, r)
}

// EvictPrivate forces the region out of a core's private caches with
// natural-eviction semantics: modified lines are written back into the
// node's L3 (marking it Modified and clearing the core-valid bit), clean
// lines are dropped silently (leaving the core-valid bit set). This mirrors
// the paper's "optional cache flushes" that push a data set from the
// private levels into the L3.
func (p *Placer) EvictPrivate(core topology.CoreID, r addr.Region) {
	cc := p.E.M.Core(core)
	node := p.E.M.Topo.NodeOfCore(core)
	bit := p.E.M.Topo.LocalCore(core)
	forEachLine(r, func(l addr.LineAddr) {
		st1, ok1 := cc.L1D.Invalidate(l)
		st2, ok2 := cc.L2.Invalidate(l)
		dirty := (ok1 && st1.State.Dirty()) || (ok2 && st2.State.Dirty())
		if !dirty {
			return
		}
		sl := p.E.M.CAForNode(node, l)
		slice := p.E.M.Slice(sl)
		if !slice.Update(l, func(ln *cache.Line) {
			ln.State = cache.Modified
			ln.CoreValid &^= 1 << uint(bit)
		}) {
			// The inclusive L3 should hold the line; if a capacity
			// victim raced it out, write the dirty data home.
			p.E.M.HA(l).DRAM.RecordWrite()
		}
	})
}
