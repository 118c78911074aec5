package experiments

import (
	"fmt"

	"haswellep/internal/addr"
	"haswellep/internal/bwmodel"
	"haswellep/internal/machine"
	"haswellep/internal/report"
	"haswellep/internal/topology"
)

// readBW places a buffer and models the single-core streaming-read
// bandwidth (GB/s) on a fresh machine.
func (env *Env) readBW(core topology.CoreID, r addr.Region, w bwmodel.Width, place func()) bwmodel.StreamStat {
	env.Fresh()
	place()
	return bwmodel.ReadStream(env.E, core, r, w, bwmodel.ConcurrencyFor(env.Mode))
}

// writeBW places a buffer and models the single-core streaming-write
// bandwidth on a fresh machine.
func (env *Env) writeBW(core topology.CoreID, r addr.Region, place func()) bwmodel.StreamStat {
	env.Fresh()
	place()
	return bwmodel.WriteStream(env.E, core, r, bwmodel.DefaultWriteConcurrency)
}

// Table6Result is the reproduction of Table VI.
type Table6Result struct {
	Table       *report.Table
	Comparisons []report.Comparison
}

// table6Paper holds the published single-threaded read bandwidths (GB/s) in
// the Table III row order. The home-snoop column of the paper leaves the
// L3-local cell blank (unchanged from default); we compare against 26.2.
var table6Paper = map[string][6]float64{
	"default":              {26.2, 8.8, 8.8, 10.3, 8.0, 8.0},
	"early snoop disabled": {26.2, 8.9, 8.9, 9.5, 8.2, 8.2},
	"COD first node":       {29.0, 8.7, 8.3, 12.6, 8.3, 8.0},
	"COD 2nd node ring0":   {27.2, 8.3, 8.0, 12.4, 7.8, 7.4},
	"COD 2nd node ring1":   {27.6, 8.4, 8.1, 12.6, 8.1, 7.5},
}

// Table6 reproduces Table VI: single-threaded read bandwidth per
// configuration; L3 rows are for state exclusive.
func Table6() Table6Result {
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
		remote1, remote2 := 1, 1
		if col.mode == machine.COD {
			remote1, remote2 = 2, 3
		}
		l3 := func(node int, placer topology.CoreID) float64 {
			r := env.Alloc(node, SizeL3n)
			return env.readBW(core, r, bwmodel.AVX256, func() { env.P.Exclusive(placer, r) }).GBps
		}
		mem := func(node int, placer topology.CoreID) float64 {
			r := env.Alloc(node, SizeMem)
			return env.readBW(core, r, bwmodel.AVX256, func() { env.placeFlushed(placer, r) }).GBps
		}
		values[ci] = [6]float64{
			l3(localNode, core),
			l3(remote1, env.FirstCore(remote1)),
			l3(remote2, env.FirstCore(remote2)),
			mem(localNode, core),
			mem(remote1, env.FirstCore(remote1)),
			mem(remote2, env.FirstCore(remote2)),
		}
	}

	tbl := report.NewTable(
		"Table VI: single threaded read bandwidth (GB/s); L3 rows are for state exclusive",
		append([]string{"source"}, colNames(cols)...)...)
	var cmps []report.Comparison
	for ri, rowName := range rows {
		cells := []string{rowName}
		for ci, col := range cols {
			got := values[ci][ri]
			cells = append(cells, fmtGB(got))
			cmps = append(cmps, report.Comparison{
				Label:    rowName + " / " + col.name,
				Paper:    table6Paper[col.name][ri],
				Measured: got,
				Unit:     "GB/s",
			})
		}
		tbl.AddRow(cells...)
	}
	return Table6Result{Table: tbl, Comparisons: cmps}
}

// ScalingResult is one bandwidth-scaling table (Tables VII and VIII).
type ScalingResult struct {
	Table       *report.Table
	Rows        map[string][]float64
	Comparisons []report.Comparison
}

// Table7 reproduces Table VII: memory read/write bandwidth scaling over
// concurrently accessing cores of one socket, for source snoop and home
// snoop. The published anchor cells are compared; the full rows reproduce
// the published shape (home snoop trails on local reads until about seven
// cores, writes peak near five cores and decline slightly, remote reads
// saturate at 16.8 vs 30.6 GB/s).
func Table7() ScalingResult {
	res := ScalingResult{Rows: map[string][]float64{}}
	nCores := 12

	type rowSpec struct {
		name   string
		mode   machine.SnoopMode
		single func(env *Env) float64
		cap    func(caps bwmodel.SystemCaps, n int) float64
		weight float64
	}
	rows := []rowSpec{
		{"local read (source snoop)", machine.SourceSnoop,
			func(env *Env) float64 {
				r := env.Alloc(0, SizeMem)
				return env.readBW(0, r, bwmodel.AVX256, func() { env.placeFlushed(0, r) }).GBps
			},
			func(c bwmodel.SystemCaps, n int) float64 { return c.MemReadPerSocket }, 1},
		{"local read (home snoop)", machine.HomeSnoop,
			func(env *Env) float64 {
				r := env.Alloc(0, SizeMem)
				return env.readBW(0, r, bwmodel.AVX256, func() { env.placeFlushed(0, r) }).GBps
			},
			func(c bwmodel.SystemCaps, n int) float64 { return c.MemReadPerSocket }, 1},
		{"local write", machine.SourceSnoop,
			func(env *Env) float64 {
				r := env.Alloc(0, SizeMem)
				return env.writeBW(0, r, func() {}).GBps
			},
			func(c bwmodel.SystemCaps, n int) float64 { return c.SaturatedWriteCap(n) }, 1},
		{"remote read (source snoop)", machine.SourceSnoop,
			func(env *Env) float64 {
				r := env.Alloc(1, SizeMem)
				c12 := env.FirstCore(1)
				return env.readBW(0, r, bwmodel.AVX256, func() { env.placeFlushed(c12, r) }).GBps
			},
			func(c bwmodel.SystemCaps, n int) float64 { return c.QPIReadCap(machine.SourceSnoop) }, 1},
		{"remote read (home snoop)", machine.HomeSnoop,
			func(env *Env) float64 {
				r := env.Alloc(1, SizeMem)
				c12 := env.FirstCore(1)
				return env.readBW(0, r, bwmodel.AVX256, func() { env.placeFlushed(c12, r) }).GBps
			},
			func(c bwmodel.SystemCaps, n int) float64 { return c.QPIReadCap(machine.HomeSnoop) }, 1},
	}

	headers := []string{"source"}
	for n := 1; n <= nCores; n++ {
		headers = append(headers, fmt.Sprintf("%d", n))
	}
	tbl := report.NewTable("Table VII: memory bandwidth (GB/s) scaling over concurrently accessing cores", headers...)

	for _, row := range rows {
		env := NewEnv(row.mode)
		caps := bwmodel.CapsFor(env.M.Cfg)
		demand := row.single(env)
		vals := make([]float64, nCores)
		cells := []string{row.name}
		for n := 1; n <= nCores; n++ {
			vals[n-1] = bwmodel.Aggregate(n, demand, row.cap(caps, n), row.weight)
			cells = append(cells, fmtGB(vals[n-1]))
		}
		res.Rows[row.name] = vals
		tbl.AddRow(cells...)
	}
	res.Table = tbl

	// Published anchor cells (Section VII-B).
	anchor := func(label string, n int, paper float64, row string) {
		res.Comparisons = append(res.Comparisons, report.Comparison{
			Label: label, Paper: paper, Measured: res.Rows[row][n-1], Unit: "GB/s",
		})
	}
	anchor("T7 local read saturated (source snoop, 12 cores)", 12, 63, "local read (source snoop)")
	anchor("T7 local read saturated (home snoop, 12 cores)", 12, 63, "local read (home snoop)")
	anchor("T7 local write single core", 1, 7.7, "local write")
	anchor("T7 local write peak (5 cores)", 5, 26.5, "local write")
	anchor("T7 local write 12 cores", 12, 25.8, "local write")
	anchor("T7 remote read saturated (source snoop)", 12, 16.8, "remote read (source snoop)")
	anchor("T7 remote read saturated (home snoop)", 12, 30.6, "remote read (home snoop)")
	anchor("T7 remote read single (source snoop)", 1, 8.0, "remote read (source snoop)")
	anchor("T7 remote read single (home snoop)", 1, 8.2, "remote read (home snoop)")
	return res
}

// table8Paper maps row name to the published series over 1..4+ reading
// cores (the table reports saturation by four cores; five and six change
// nothing).
var table8Paper = map[string][4]float64{
	"local memory": {12.6, 24.3, 30.6, 32.5},
	"node0-node1":  {7.0, 15.2, 18.6, 18.8},
	"node0-node2":  {5.9, 12.8, 15.4, 15.6},
	"node0-node3":  {5.5, 12.2, 14.4, 14.7},
}

// Table8 reproduces Table VIII: memory read bandwidth scaling in COD mode
// over the cores of node0 reading from each node's memory.
func Table8() ScalingResult {
	res := ScalingResult{Rows: map[string][]float64{}}
	env := NewEnv(machine.COD)
	caps := bwmodel.CapsFor(env.M.Cfg)
	nCores := 6

	rows := []struct {
		name string
		node int
		cap  float64
	}{
		{"local memory", 0, caps.MemReadPerNode},
		{"node0-node1", 1, caps.CODInterNodeCap(1)},
		{"node0-node2", 2, caps.CODInterNodeCap(2)},
		{"node0-node3", 3, caps.CODInterNodeCap(3)},
	}

	headers := []string{"source"}
	for n := 1; n <= nCores; n++ {
		headers = append(headers, fmt.Sprintf("%d", n))
	}
	tbl := report.NewTable("Table VIII: memory read bandwidth (GB/s) scaling in COD mode (cores of node0)", headers...)

	for _, row := range rows {
		r := env.Alloc(row.node, SizeMem)
		placer := env.FirstCore(row.node)
		if placer == 0 {
			placer = env.SecondCore(row.node)
		}
		demand := env.readBW(0, r, bwmodel.AVX256, func() { env.placeFlushed(placer, r) }).GBps
		vals := make([]float64, nCores)
		cells := []string{row.name}
		for n := 1; n <= nCores; n++ {
			vals[n-1] = bwmodel.Aggregate(n, demand, row.cap, 1)
			cells = append(cells, fmtGB(vals[n-1]))
		}
		res.Rows[row.name] = vals
		tbl.AddRow(cells...)

		paper := table8Paper[row.name]
		for i := 0; i < 4; i++ {
			res.Comparisons = append(res.Comparisons, report.Comparison{
				Label:    fmt.Sprintf("T8 %s, %d cores", row.name, i+1),
				Paper:    paper[i],
				Measured: vals[i],
				Unit:     "GB/s",
			})
		}
	}
	res.Table = tbl
	return res
}

// Fig8 reproduces Figure 8: single-threaded read bandwidth sweep in the
// default configuration, including the AVX-vs-SSE datapath split on the
// private levels and the per-state transfer plateaus.
func Fig8() *report.Figure {
	fig := &report.Figure{
		Title:  "Figure 8: memory read bandwidth, default configuration (source snoop)",
		XLabel: "data set size (bytes)", YLabel: "bandwidth (GB/s)",
	}
	curves := []struct {
		name  string
		width bwmodel.Width
		core  topology.CoreID
		place func(env *Env, r addr.Region)
	}{
		{"local, AVX", bwmodel.AVX256, 0, func(env *Env, r addr.Region) { env.P.Exclusive(0, r) }},
		{"local, SSE", bwmodel.SSE128, 0, func(env *Env, r addr.Region) { env.P.Exclusive(0, r) }},
		{"within NUMA node, modified", bwmodel.AVX256, 0, func(env *Env, r addr.Region) { env.P.Modified(1, r) }},
		{"within NUMA node, exclusive", bwmodel.AVX256, 0, func(env *Env, r addr.Region) { env.P.Exclusive(1, r) }},
		{"other NUMA node (1 hop QPI), modified", bwmodel.AVX256, 0, func(env *Env, r addr.Region) { env.P.Modified(12, r) }},
		{"other NUMA node (1 hop QPI), exclusive", bwmodel.AVX256, 0, func(env *Env, r addr.Region) { env.P.Exclusive(12, r) }},
	}
	for _, c := range curves {
		env := NewEnv(machine.SourceSnoop)
		s := report.Series{Name: c.name}
		for _, size := range SweepSizes() {
			node := 0
			if c.name[0] == 'o' { // other NUMA node curves: data homed remotely
				node = 1
			}
			r := env.Alloc(node, size)
			st := env.readBW(c.core, r, c.width, func() { c.place(env, r) })
			s.Add(float64(size), st.GBps)
		}
		fig.Series = append(fig.Series, s)
	}
	return fig
}

// Fig9 reproduces Figure 9: read bandwidth of shared cache lines. The key
// effect: local private-cache hits only run at L1/L2 speed when the forward
// copy is in the requesting core's node; with the forward copy on the other
// processor every hit notifies the L3 to reclaim the forward state and the
// stream drops to L3 bandwidth.
func Fig9() *report.Figure {
	fig := &report.Figure{
		Title:  "Figure 9: read bandwidth of shared cache lines (source snoop)",
		XLabel: "data set size (bytes)", YLabel: "bandwidth (GB/s)",
	}
	curves := []struct {
		name  string
		place func(env *Env, r addr.Region) // measuring core is 0
	}{
		// Core 0 is the last reader: the forward copy lands in node0.
		{"shared, forward copy in own node", func(env *Env, r addr.Region) { env.P.Shared(r, 12, 0) }},
		// Core 12 is the last reader: the forward copy lands in node1
		// while core 0 keeps shared copies in its L1/L2.
		{"shared, forward copy in other node", func(env *Env, r addr.Region) { env.P.Shared(r, 0, 12) }},
		// Not cached locally at all: forwarded from the remote L3.
		{"shared, remote L3", func(env *Env, r addr.Region) { env.P.Shared(r, 12, 13) }},
	}
	for _, c := range curves {
		env := NewEnv(machine.SourceSnoop)
		s := report.Series{Name: c.name}
		for _, size := range SweepSizes() {
			r := env.Alloc(1, size)
			st := env.readBW(0, r, bwmodel.AVX256, func() { c.place(env, r) })
			s.Add(float64(size), st.GBps)
		}
		fig.Series = append(fig.Series, s)
	}
	return fig
}

// AggregateL3 reports the L3 read/write bandwidth scaling of Section VII-B:
// near-linear scaling to 278 GB/s read and 161 GB/s write over one socket's
// twelve cores (154 / 94 GB/s per node in COD mode).
func AggregateL3(mode machine.SnoopMode) ScalingResult {
	res := ScalingResult{Rows: map[string][]float64{}}
	env := NewEnv(mode)
	caps := bwmodel.CapsFor(env.M.Cfg)
	nCores := 12
	readCap, writeCap := caps.L3ReadPerSocket, caps.L3WritePerSocket
	if mode == machine.COD {
		nCores = 6
		readCap, writeCap = caps.L3ReadPerNode, caps.L3WritePerNode
	}

	r := env.Alloc(0, SizeL3n)
	readDemand := env.readBW(0, r, bwmodel.AVX256, func() { env.P.Exclusive(0, r) }).GBps
	r2 := env.Alloc(0, SizeL3n)
	writeDemand := env.writeBW(0, r2, func() {
		env.P.Modified(0, r2)
		env.P.EvictPrivate(0, r2)
	}).GBps

	headers := []string{"source"}
	for n := 1; n <= nCores; n++ {
		headers = append(headers, fmt.Sprintf("%d", n))
	}
	tbl := report.NewTable(fmt.Sprintf("L3 bandwidth (GB/s) scaling, %v", mode), headers...)
	reads := make([]float64, nCores)
	writes := make([]float64, nCores)
	rc := []string{"L3 read"}
	wc := []string{"L3 write"}
	for n := 1; n <= nCores; n++ {
		reads[n-1] = bwmodel.Aggregate(n, readDemand, readCap, 1)
		writes[n-1] = bwmodel.Aggregate(n, writeDemand, writeCap, 1)
		rc = append(rc, fmtGB(reads[n-1]))
		wc = append(wc, fmtGB(writes[n-1]))
	}
	tbl.AddRow(rc...)
	tbl.AddRow(wc...)
	res.Table = tbl
	res.Rows["L3 read"] = reads
	res.Rows["L3 write"] = writes

	if mode != machine.COD {
		res.Comparisons = []report.Comparison{
			{Label: "L3 read single core", Paper: 26.2, Measured: reads[0], Unit: "GB/s"},
			{Label: "L3 read 12 cores", Paper: 278, Measured: reads[11], Unit: "GB/s"},
			{Label: "L3 write single core", Paper: 15, Measured: writes[0], Unit: "GB/s"},
			{Label: "L3 write 12 cores", Paper: 161, Measured: writes[11], Unit: "GB/s"},
		}
	} else {
		res.Comparisons = []report.Comparison{
			{Label: "COD L3 read per node", Paper: 154, Measured: reads[5], Unit: "GB/s"},
			{Label: "COD L3 write per node", Paper: 94, Measured: writes[5], Unit: "GB/s"},
		}
	}
	return res
}
