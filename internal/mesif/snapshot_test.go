package mesif_test

import (
	"fmt"
	"math/rand"
	"reflect"
	"testing"

	"haswellep/internal/addr"
	"haswellep/internal/coherence"
	"haswellep/internal/machine"
	"haswellep/internal/mesif"
	"haswellep/internal/topology"
)

// snapshotOps runs a seeded mix of reads, writes, and flushes from every
// core over lines homed on every node — enough lines per cache set to
// force evictions at every level, and enough cross-node sharing to fill
// the COD directories and HitME caches — and returns the accesses.
func snapshotOps(e *mesif.Engine, lines []addr.LineAddr, seed int64, n int) []mesif.Access {
	rng := rand.New(rand.NewSource(seed))
	out := make([]mesif.Access, 0, n)
	for i := 0; i < n; i++ {
		core := topology.CoreID(rng.Intn(e.M.Topo.Cores()))
		l := lines[rng.Intn(len(lines))]
		switch rng.Intn(8) {
		case 0:
			out = append(out, e.Flush(core, l))
		case 1, 2:
			out = append(out, e.Write(core, l))
		default:
			out = append(out, e.Read(core, l))
		}
	}
	return out
}

// TestSnapshotRestoreRoundTrip: a machine restored from a snapshot holds
// exactly the snapshotted state, and from there behaves exactly like the
// machine the snapshot was taken from — every access, every counter, and
// the final state agree — under every snoop mode and protocol.
func TestSnapshotRestoreRoundTrip(t *testing.T) {
	for _, mode := range []machine.SnoopMode{machine.SourceSnoop, machine.HomeSnoop, machine.COD} {
		for _, proto := range coherence.IDs() {
			t.Run(fmt.Sprintf("%v/%s", mode, proto), func(t *testing.T) {
				cfg := machine.TestSystem(mode)
				cfg.Protocol = proto
				build := func() (*mesif.Engine, []addr.LineAddr) {
					m := machine.MustNew(cfg)
					var lines []addr.LineAddr
					for n := 0; n < m.Topo.Nodes(); n++ {
						// 64 lines at a 64 KiB stride share their L1, L2,
						// and (mostly) L3 sets; 256 more are contiguous.
						r := m.MustAlloc(topology.NodeID(n), 8<<20)
						for i := 0; i < 64; i++ {
							lines = append(lines, (r.Base + addr.PAddr(i)<<16).Line())
						}
						lines = append(lines, r.Lines()[:256]...)
					}
					return mesif.New(m), lines
				}
				src, lines := build()
				snapshotOps(src, lines, 1, 20000)
				snap := src.Snapshot()
				if snap.Seq != 20000 {
					t.Fatalf("Seq = %d after 20000 transactions", snap.Seq)
				}
				if mode == machine.COD {
					var dir, hitme int
					for _, a := range snap.Machine.Agents {
						dir += len(a.Dir.Entries)
						hitme += len(a.HitME.Entries)
					}
					if dir == 0 || hitme == 0 {
						t.Fatalf("workload left %d directory and %d HitME entries; the round trip would not cover them", dir, hitme)
					}
				}

				dst, _ := build()
				snapshotOps(dst, lines, 2, 500) // unrelated prior state
				dst.Restore(snap)
				if got := dst.Snapshot(); !reflect.DeepEqual(got, snap) {
					t.Fatal("restored machine's snapshot differs from the snapshot it was restored from")
				}
				if !reflect.DeepEqual(dst.Stats(), src.Stats()) || dst.M.Traffic() != src.M.Traffic() {
					t.Fatal("restored statistics differ")
				}

				a := snapshotOps(src, lines, 3, 5000)
				b := snapshotOps(dst, lines, 3, 5000)
				for i := range a {
					if a[i] != b[i] {
						t.Fatalf("access %d after restore: %+v, original %+v", i, b[i], a[i])
					}
				}
				if !reflect.DeepEqual(dst.Snapshot(), src.Snapshot()) {
					t.Error("state after the continued workload differs")
				}
				if !reflect.DeepEqual(dst.Stats(), src.Stats()) {
					t.Error("statistics after the continued workload differ")
				}
			})
		}
	}
}

// TestSeqSurvivesResets: the sequence number counts every transaction and
// is rewound by neither ResetStats nor a machine Reset.
func TestSeqSurvivesResets(t *testing.T) {
	m := machine.MustNew(machine.TestSystem(machine.COD))
	e := mesif.New(m)
	r := m.MustAlloc(0, 4096)
	for _, l := range r.Lines() {
		e.Write(0, l)
		e.Read(1, l)
		e.Flush(2, l)
	}
	e.ResetStats()
	m.Reset()
	if got, want := e.Seq(), uint64(3*len(r.Lines())); got != want {
		t.Fatalf("Seq = %d, want %d", got, want)
	}
}
