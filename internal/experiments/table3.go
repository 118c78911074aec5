package experiments

import (
	"haswellep/internal/addr"
	"haswellep/internal/machine"
	"haswellep/internal/report"
	"haswellep/internal/topology"
)

// Table3Result holds the reproduction of Table III: latency in nanoseconds
// for L3 (state exclusive) and memory, local and remote, per coherence
// configuration and — in COD mode — per measuring-core group.
type Table3Result struct {
	Table       *report.Table
	Comparisons []report.Comparison
}

// table3Column is one configuration column of Table III.
type table3Column struct {
	name string
	mode machine.SnoopMode
	// core is the measuring core; its node is the "local" node.
	core topology.CoreID
}

// table3Paper holds the published values per column, in row order:
// L3 local, L3 remote 1st node, L3 remote 2nd node,
// mem local, mem remote 1st node, mem remote 2nd node.
// The non-COD configurations expose a single remote socket, so their two
// remote rows coincide.
var table3Paper = map[string][6]float64{
	"default":              {21.2, 104, 104, 96.4, 146, 146},
	"early snoop disabled": {21.2, 115, 115, 108, 148, 148},
	"COD first node":       {18.0, 104, 113, 89.6, 141, 147},
	"COD 2nd node ring0":   {20.0, 108, 118, 94.0, 145, 151},
	"COD 2nd node ring1":   {18.4, 111, 120, 90.4, 148, 153},
}

// Table3 reproduces Table III.
func Table3() Table3Result {
	cols := []table3Column{
		{"default", machine.SourceSnoop, 0},
		{"early snoop disabled", machine.HomeSnoop, 0},
		{"COD first node", machine.COD, 0},
		{"COD 2nd node ring0", machine.COD, 6},
		{"COD 2nd node ring1", machine.COD, 8},
	}

	rows := []string{
		"L3 local", "L3 remote first node", "L3 remote 2nd node",
		"memory local", "memory remote first node", "memory remote 2nd node",
	}
	values := make([][6]float64, len(cols))

	for ci, col := range cols {
		env := NewEnv(col.mode)
		core := col.core
		localNode := int(env.M.Topo.NodeOfCore(core))
		// The remote socket's first and second node. Without COD the
		// remote socket is a single node; both remote rows measure it.
		remote1 := 1
		remote2 := 1
		if col.mode == machine.COD {
			remote1, remote2 = 2, 3
		}

		l3Local := env.latencyOf(core, env.Alloc(localNode, SizeL3n), func() {
			env.P.Exclusive(core, lastRegion(env))
		})
		l3R1 := env.latencyOf(core, env.Alloc(remote1, SizeL3n), func() {
			env.P.Exclusive(env.FirstCore(remote1), lastRegion(env))
		})
		l3R2 := env.latencyOf(core, env.Alloc(remote2, SizeL3n), func() {
			env.P.Exclusive(env.FirstCore(remote2), lastRegion(env))
		})
		memLocal := env.latencyOf(core, env.Alloc(localNode, SizeMem), func() {
			env.placeFlushed(core, lastRegion(env))
		})
		memR1 := env.latencyOf(core, env.Alloc(remote1, SizeMem), func() {
			env.placeFlushed(env.FirstCore(remote1), lastRegion(env))
		})
		memR2 := env.latencyOf(core, env.Alloc(remote2, SizeMem), func() {
			env.placeFlushed(env.FirstCore(remote2), lastRegion(env))
		})
		values[ci] = [6]float64{
			l3Local.MeanNs, l3R1.MeanNs, l3R2.MeanNs,
			memLocal.MeanNs, memR1.MeanNs, memR2.MeanNs,
		}
	}

	tbl := report.NewTable(
		"Table III: latency (ns); L3 rows are for state exclusive",
		append([]string{"source"}, colNames(cols)...)...)
	var cmps []report.Comparison
	for ri, rowName := range rows {
		cells := []string{rowName}
		for ci, col := range cols {
			got := values[ci][ri]
			cells = append(cells, fmtNs(got))
			cmps = append(cmps, report.Comparison{
				Label:    rowName + " / " + col.name,
				Paper:    table3Paper[col.name][ri],
				Measured: got,
				Unit:     "ns",
			})
		}
		tbl.AddRow(cells...)
	}
	return Table3Result{Table: tbl, Comparisons: cmps}
}

func colNames(cols []table3Column) []string {
	out := make([]string, len(cols))
	for i, c := range cols {
		out[i] = c.name
	}
	return out
}

// lastRegion returns the most recent allocation of the environment. The
// latencyOf helper resets cache state before placement, so experiments
// allocate first and place inside the callback; this accessor avoids
// re-plumbing the region through every closure.
func lastRegion(env *Env) addr.Region { return env.lastAlloc }
