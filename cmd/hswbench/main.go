// Command hswbench runs the paper-reproduction experiments of the simulated
// Haswell-EP machine and prints the corresponding table or figure data.
//
// Usage:
//
//	hswbench -exp table3            # one experiment
//	hswbench -exp all               # everything (slow)
//	hswbench -exp fig4 -out dir     # write figure CSVs into dir
//	hswbench -list                  # list experiment ids
//	hswbench -bench -bench-out BENCH_3.json
//	                                # throughput scenarios -> versioned JSON
//	hswbench -bench-compare BENCH_2.json BENCH_3.json
//	                                # diff deterministic sim-side anchors
//	hswbench -exp matrix -cpuprofile cpu.out -memprofile mem.out
//	                                # profile any mode (go tool pprof)
//
// Experiment ids follow DESIGN.md: table1, table2, table3, table4, table5,
// table6, table7, table8, l3scaling, fig4, fig5, fig6, fig7, fig8, fig9,
// fig10.
//
// The -bench mode (see bench.go) runs four engine-throughput scenarios —
// pointer chase, capacity pressure, chaos stream, and the farm-parallel
// chaos stream — and emits versioned JSON: deterministic simulation-side
// counters as regression anchors plus wall-clock transactions/second as
// the performance trajectory. The checked-in BENCH_3.json at the
// repository root records the current baseline (BENCH_1.json and
// BENCH_2.json are its predecessors); -bench-compare verifies that the
// sim-side anchors of
// every scenario shared by two reports are byte-identical and that no
// scenario was dropped.
//
//hsw:tier tool
package main

import (
	"flag"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"runtime"
	"runtime/pprof"
	"strings"

	"haswellep/internal/experiments"
	"haswellep/internal/machine"
	"haswellep/internal/report"
)

// experimentIDs lists every supported experiment in run order.
var experimentIDs = []string{
	"table1", "table2", "table3", "table4", "table5",
	"table6", "table7", "table8", "l3scaling",
	"fig4", "fig5", "fig6", "fig7", "fig8", "fig9", "fig10",
	"ablation", "loaded", "workloads", "matrix",
}

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

func run(args []string, stdout, stderr io.Writer) (code int) {
	fs := flag.NewFlagSet("hswbench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	exp := fs.String("exp", "", "experiment id to run (or 'all')")
	out := fs.String("out", "", "directory for figure CSV files (default: print to stdout)")
	list := fs.Bool("list", false, "list experiment ids and exit")
	compare := fs.Bool("compare", true, "print paper-vs-measured comparisons where available")
	doBench := fs.Bool("bench", false, "run the throughput scenarios and emit versioned benchmark JSON")
	benchOut := fs.String("bench-out", "", "file for -bench JSON (default: print to stdout)")
	benchCompare := fs.Bool("bench-compare", false, "compare the sim-side anchors of two bench reports: OLD.json NEW.json")
	cpuProfile := fs.String("cpuprofile", "", "write a CPU profile of the run to this file")
	memProfile := fs.String("memprofile", "", "write a heap profile to this file when the run ends")
	if err := fs.Parse(args); err != nil {
		return 2
	}

	if *cpuProfile != "" {
		f, err := os.Create(*cpuProfile)
		if err != nil {
			fmt.Fprintf(stderr, "hswbench: %v\n", err)
			return 1
		}
		defer f.Close()
		if err := pprof.StartCPUProfile(f); err != nil {
			fmt.Fprintf(stderr, "hswbench: %v\n", err)
			return 1
		}
		defer pprof.StopCPUProfile()
	}
	if *memProfile != "" {
		defer func() {
			if err := writeHeapProfile(*memProfile); err != nil {
				fmt.Fprintf(stderr, "hswbench: %v\n", err)
				code = 1
			}
		}()
	}

	if *benchCompare {
		if fs.NArg() != 2 {
			fmt.Fprintln(stderr, "hswbench: -bench-compare expects exactly two report files: OLD.json NEW.json")
			return 2
		}
		if err := runBenchCompare(stdout, fs.Arg(0), fs.Arg(1)); err != nil {
			fmt.Fprintf(stderr, "hswbench: %v\n", err)
			return 1
		}
		return 0
	}
	if *doBench {
		if err := runBench(stdout, *benchOut); err != nil {
			fmt.Fprintf(stderr, "hswbench: %v\n", err)
			return 1
		}
		return 0
	}
	if *list {
		fmt.Fprintln(stdout, strings.Join(experimentIDs, "\n"))
		return 0
	}
	if *exp == "" {
		fmt.Fprintln(stderr, "hswbench: -exp required (use -list for ids)")
		return 2
	}

	ids := []string{*exp}
	if *exp == "all" {
		ids = experimentIDs
	}
	for _, id := range ids {
		if err := runExperiment(stdout, id, *out, *compare); err != nil {
			fmt.Fprintf(stderr, "hswbench: %v\n", err)
			return 1
		}
	}
	return 0
}

// writeHeapProfile writes the heap profile of the live data after a GC.
func writeHeapProfile(path string) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	runtime.GC()
	if err := pprof.WriteHeapProfile(f); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// runExperiment executes one experiment and prints its artifacts.
func runExperiment(stdout io.Writer, id, outDir string, compare bool) error {
	emitFig := func(figs ...*report.Figure) error {
		for _, f := range figs {
			if outDir == "" {
				fmt.Fprintln(stdout, "# "+f.Title)
				fmt.Fprint(stdout, f.CSV())
				fmt.Fprintln(stdout)
				continue
			}
			name := sanitize(f.Title) + ".csv"
			path := filepath.Join(outDir, name)
			if err := os.MkdirAll(outDir, 0o755); err != nil {
				return err
			}
			if err := os.WriteFile(path, []byte(f.CSV()), 0o644); err != nil {
				return err
			}
			fmt.Fprintf(stdout, "wrote %s\n", path)
		}
		return nil
	}
	emitCmp := func(title string, cs []report.Comparison) {
		if compare && len(cs) > 0 {
			fmt.Fprintln(stdout, report.ComparisonSet(title+" — paper vs measured:", cs))
		}
	}

	switch id {
	case "table1":
		fmt.Fprintln(stdout, experiments.Table1().String())
	case "table2":
		fmt.Fprintln(stdout, experiments.Table2().String())
	case "table3":
		res := experiments.Table3()
		fmt.Fprintln(stdout, res.Table.String())
		emitCmp("Table III", res.Comparisons)
	case "table4":
		res, err := experiments.Table4()
		if err != nil {
			return err
		}
		fmt.Fprintln(stdout, res.Table.String())
		emitCmp("Table IV", res.Comparisons)
	case "table5":
		res, err := experiments.Table5()
		if err != nil {
			return err
		}
		fmt.Fprintln(stdout, res.Table.String())
		emitCmp("Table V", res.Comparisons)
	case "table6":
		res := experiments.Table6()
		fmt.Fprintln(stdout, res.Table.String())
		emitCmp("Table VI", res.Comparisons)
	case "table7":
		res := experiments.Table7()
		fmt.Fprintln(stdout, res.Table.String())
		emitCmp("Table VII", res.Comparisons)
	case "table8":
		res := experiments.Table8()
		fmt.Fprintln(stdout, res.Table.String())
		emitCmp("Table VIII", res.Comparisons)
	case "l3scaling":
		def := experiments.AggregateL3(machine.SourceSnoop)
		fmt.Fprintln(stdout, def.Table.String())
		emitCmp("L3 scaling", def.Comparisons)
		cod := experiments.AggregateL3(machine.COD)
		fmt.Fprintln(stdout, cod.Table.String())
		emitCmp("L3 scaling (COD)", cod.Comparisons)
	case "fig4":
		return emitFig(experiments.Fig4())
	case "fig5":
		return emitFig(experiments.Fig5())
	case "fig6":
		m, e := experiments.Fig6()
		return emitFig(m, e)
	case "fig7":
		lat, frac, err := experiments.Fig7()
		if err != nil {
			return err
		}
		return emitFig(lat, frac)
	case "fig8":
		return emitFig(experiments.Fig8())
	case "fig9":
		return emitFig(experiments.Fig9())
	case "fig10":
		res := experiments.Fig10()
		fmt.Fprintln(stdout, res.Table.String())
		emitCmp("Figure 10", res.Comparisons)
	case "ablation":
		fmt.Fprintln(stdout, experiments.AblationDirectory().Table.String())
		fmt.Fprintln(stdout, experiments.AblationHitME().Table.String())
		fmt.Fprintln(stdout, experiments.AblationSnoopTraffic().Table.String())
		fmt.Fprintln(stdout, experiments.AblationDieVariants().String())
	case "loaded":
		return emitFig(experiments.LoadedLatency())
	case "workloads":
		fmt.Fprintln(stdout, experiments.WorkloadStudy().Table.String())
	case "matrix":
		for _, mode := range []machine.SnoopMode{machine.SourceSnoop, machine.COD} {
			res := experiments.NodeMatrix(mode)
			fmt.Fprintln(stdout, res.Latency.String())
			fmt.Fprintln(stdout, res.Bandwidth.String())
		}
	default:
		return fmt.Errorf("unknown experiment %q (use -list)", id)
	}
	return nil
}

// sanitize turns a figure title into a file name: lowercase, alphanumerics
// and underscores only, truncated to a sane length.
func sanitize(s string) string {
	s = strings.ToLower(s)
	var b strings.Builder
	lastUnderscore := false
	for _, r := range s {
		switch {
		case r >= 'a' && r <= 'z', r >= '0' && r <= '9':
			b.WriteRune(r)
			lastUnderscore = false
		default:
			if !lastUnderscore {
				b.WriteByte('_')
				lastUnderscore = true
			}
		}
	}
	out := strings.Trim(b.String(), "_")
	if len(out) > 64 {
		out = out[:64]
	}
	return out
}
