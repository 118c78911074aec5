package experiments

import (
	"fmt"

	"haswellep/internal/bwmodel"
	"haswellep/internal/machine"
	"haswellep/internal/mesif"
	"haswellep/internal/report"
	"haswellep/internal/topology"
	"haswellep/internal/units"
	"haswellep/internal/workload"
)

// The extension experiments go beyond the paper's figures using the same
// machinery: a loaded-latency curve connecting the unloaded latencies of
// Section VI with the saturated bandwidths of Section VII, and a workload
// archetype study generalizing Section VIII.

// LoadedLatency produces the classic loaded-latency curve for local memory
// in each coherence configuration: the measured unloaded latency as the
// base, the measured per-core stream demand as the load step, and the
// configuration's memory capacity as the asymptote.
func LoadedLatency() *report.Figure {
	fig := &report.Figure{
		Title:  "Extension: local memory loaded latency per configuration",
		XLabel: "offered load (GB/s)",
		YLabel: "latency (ns)",
	}
	for _, mode := range []machine.SnoopMode{machine.SourceSnoop, machine.HomeSnoop, machine.COD} {
		env := NewEnv(mode)
		caps := bwmodel.CapsFor(env.M.Cfg)
		capacity := caps.MemReadPerSocket
		nCores := 12
		if mode == machine.COD {
			capacity = caps.MemReadPerNode
			nCores = 6
		}

		// Unloaded latency and per-core demand, both measured.
		r := env.Alloc(0, SizeMem)
		base := env.latencyOf(0, r, func() { env.placeFlushed(0, r) }).MeanNs
		env.Fresh()
		env.placeFlushed(0, r)
		demand := bwmodel.ReadStream(env.E, 0, r, bwmodel.AVX256, bwmodel.ConcurrencyFor(mode)).GBps

		s := report.Series{Name: mode.String()}
		model := bwmodel.DefaultLoadedLatency
		for n := 0; n <= nCores; n++ {
			offered := float64(n) * demand
			delivered := offered
			if delivered > capacity {
				delivered = capacity
			}
			s.Add(delivered, model.Latency(base, offered, capacity))
		}
		fig.Series = append(fig.Series, s)
	}
	return fig
}

// WorkloadStudyResult is the archetype-vs-configuration matrix.
type WorkloadStudyResult struct {
	Table *report.Table
	// MakespanRel[workload][mode] is the makespan relative to source
	// snoop.
	MakespanRel map[string]map[machine.SnoopMode]float64
}

// workloadSpecs returns the archetype suite of the study.
func workloadSpecs() []workload.Spec {
	return []workload.Spec{
		{
			Name: "numa-local-stream", Pattern: workload.Sequential,
			Footprint: 8 * units.MiB, HomeNode: 0,
			Cores: []topology.CoreID{0, 1, 2, 3}, WriteFraction: 0.25,
		},
		{
			Name: "migratory-locks", Pattern: workload.Migratory,
			Footprint: 4 * units.KiB, HomeNode: 0,
			Cores: []topology.CoreID{0, 5, 12, 17}, Accesses: 8000,
		},
		{
			Name: "cross-socket-pipeline", Pattern: workload.ProducerConsumer,
			Footprint: 1 * units.MiB, HomeNode: 0,
			Cores: []topology.CoreID{0, 12}, Accesses: 16000,
		},
		{
			Name: "shared-lookup-table", Pattern: workload.ReadShared,
			Footprint: 256 * units.KiB, HomeNode: 0,
			Cores: []topology.CoreID{0, 6, 12, 18}, Accesses: 16000,
		},
		{
			Name: "random-chase", Pattern: workload.Random,
			Footprint: 16 * units.MiB, HomeNode: 0, Seed: 1,
			Cores: []topology.CoreID{0, 1}, Accesses: 20000,
		},
	}
}

// WorkloadStudy runs the archetype suite under every configuration and
// reports relative makespans — the generalization of Figure 10 to
// controllable synthetic workloads.
func WorkloadStudy() WorkloadStudyResult {
	modes := []machine.SnoopMode{machine.SourceSnoop, machine.HomeSnoop, machine.COD}
	res := WorkloadStudyResult{MakespanRel: map[string]map[machine.SnoopMode]float64{}}
	tbl := report.NewTable(
		"Extension: workload archetypes, makespan relative to source snoop (lower is better)",
		"workload", "pattern", "source snoop", "home snoop", "COD")

	for _, spec := range workloadSpecs() {
		rel := map[machine.SnoopMode]float64{}
		var base float64
		for i, mode := range modes {
			m := machine.MustNew(machine.TestSystem(mode))
			runner := workload.NewRunner(mesif.New(m))
			out, err := runner.Run(spec)
			if err != nil {
				panic(err) // static specs; cannot fail
			}
			ms := out.MakespanNs()
			if i == 0 {
				base = ms
			}
			rel[mode] = ms / base
		}
		res.MakespanRel[spec.Name] = rel
		tbl.AddRow(spec.Name, spec.Pattern.String(),
			fmt.Sprintf("%.3f", rel[machine.SourceSnoop]),
			fmt.Sprintf("%.3f", rel[machine.HomeSnoop]),
			fmt.Sprintf("%.3f", rel[machine.COD]))
	}
	res.Table = tbl
	return res
}
