// Command perfbench is the repository benchmark: it runs one named
// workload against the deployed code (in-process hswd with its defaults),
// checks every output against the recorded answer table, and prints every
// metric by name and unit, the last line being one JSON object.
//
// Usage (normally through run.py, which builds it first):
//
//	perfbench -workload whatif-cold -seed 1 -seconds 45 -trace 0
//	perfbench -workload whatif-warm -seed 7 -seconds 45 -trace 1
//	perfbench -record   # re-record expected.json after a model change
//
// With -trace 0 it reports the end-to-end metrics. With -trace 1 it runs
// the workload untraced, traced and untraced again, a third of -seconds
// each, replays a sample of the workload's queries through the layer
// ladder, and reports the per-layer metrics; whatif-cold's traced run also
// runs one chaos campaign for the chaos layers.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"math"
	"os"
	"path/filepath"
	"runtime"
	"runtime/debug"
	"strconv"
	"strings"
	"sync"
	"time"
)

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

// metric is one reported number with its unit.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is the final output line.
type result struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

// report is what a workload run produced.
type report struct {
	attempted, failed int
	problems          []string // correctness gate failures
	e2e, layer        map[string]metric
	notes             []string // human-readable context lines
}

func newReport() *report {
	return &report{e2e: map[string]metric{}, layer: map[string]metric{}}
}

func (r *report) fail(format string, a ...any) {
	r.problems = append(r.problems, fmt.Sprintf(format, a...))
}

func (r *report) note(format string, a ...any) {
	r.notes = append(r.notes, fmt.Sprintf(format, a...))
}

func (r *report) setE2E(name string, v float64, unit string)   { r.e2e[name] = metric{v, unit} }
func (r *report) setLayer(name string, v float64, unit string) { r.layer[name] = metric{v, unit} }

// phase is the length of one measured phase: the whole run untraced, and
// a third of it in the traced run, which measures three phases.
func (o opts) phase() time.Duration {
	if o.trace {
		return o.d / 3
	}
	return o.d
}

// opts is one invocation's settings.
type opts struct {
	workload string
	seed     int64
	d        time.Duration
	trace    bool
	dir      string // scratch directory of this run
	spanDir  string
	exp      *expected
}

var workloads = map[string]func(o opts) (*report, error){
	"whatif-cold": runCold,
	"whatif-warm": runWarm,
}

func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("perfbench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	workload := fs.String("workload", "", "workload: whatif-cold or whatif-warm")
	seed := fs.Int64("seed", 1, "workload seed")
	seconds := fs.Int("seconds", 45, "measured seconds")
	traceFlag := fs.Int("trace", 0, "1 runs the traced phase and the layer ladder and reports per-layer metrics")
	expPath := fs.String("expected", "_perfbench/expected.json", "recorded answer table")
	work := fs.String("workdir", ".bench_build/work", "scratch directory (journals, spans)")
	record := fs.Bool("record", false, "record the answer table into -expected and exit")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	if *record {
		if err := recordTable(*expPath, stderr); err != nil {
			fmt.Fprintln(stderr, "perfbench:", err)
			return 1
		}
		return 0
	}
	runWorkload, ok := workloads[*workload]
	if !ok || *seconds < 1 || (*traceFlag != 0 && *traceFlag != 1) {
		fmt.Fprintf(stderr, "perfbench: need -workload (whatif-cold, whatif-warm), -seconds >= 1, -trace 0|1\n")
		return 2
	}
	exp, err := loadExpected(*expPath)
	if err != nil {
		fmt.Fprintln(stderr, "perfbench:", err)
		return 1
	}
	dir := filepath.Join(*work, fmt.Sprintf("%s-%d", *workload, os.Getpid()))
	if err := os.MkdirAll(dir, 0o755); err != nil {
		fmt.Fprintln(stderr, "perfbench:", err)
		return 1
	}
	defer os.RemoveAll(dir)
	o := opts{
		workload: *workload, seed: *seed, d: time.Duration(*seconds) * time.Second,
		trace: *traceFlag == 1, dir: dir,
		spanDir: filepath.Join(*work, "spans"), exp: exp,
	}
	rep, err := runWorkload(o)
	if err != nil {
		fmt.Fprintln(stderr, "perfbench:", err)
		return 1
	}
	res := rep.result(o.trace)
	for _, p := range rep.problems {
		fmt.Fprintln(stderr, "perfbench: INCORRECT:", p)
	}
	fmt.Fprintf(stdout, "workload %s seed %d seconds %d trace %d\n", o.workload, o.seed, *seconds, *traceFlag)
	for _, n := range rep.notes {
		fmt.Fprintln(stdout, "  "+n)
	}
	for _, k := range sortedKeys(res.Metrics) {
		m := res.Metrics[k]
		if math.IsNaN(m.Value) || math.IsInf(m.Value, 0) {
			fmt.Fprintf(stderr, "perfbench: metric %s is %v\n", k, m.Value)
			return 1
		}
		fmt.Fprintf(stdout, "  %-40s %14s %s\n", k, strconv.FormatFloat(m.Value, 'g', 8, 64), m.Unit)
	}
	line, err := json.Marshal(res)
	if err != nil {
		fmt.Fprintln(stderr, "perfbench:", err)
		return 1
	}
	fmt.Fprintln(stdout, string(line))
	return 0
}

// addPhase counts a phase's attempted and failed queries (or points).
func (r *report) addPhase(attempted, failed int) {
	r.attempted += attempted
	r.failed += failed
}

// result is the run's final line. A run is correct only when no gate
// failed and no attempted query or point failed in any phase, traced and
// repeated phases included: a failed query is a wrong, degraded or refused
// answer.
func (r *report) result(trace bool) result {
	if r.failed > 0 {
		r.fail("%d of %d attempted queries failed", r.failed, r.attempted)
	}
	res := result{Correct: len(r.problems) == 0, Attempted: r.attempted, Failed: r.failed, Metrics: r.e2e}
	if trace {
		res.Metrics = r.layer
	}
	return res
}

// setE2ECommon sets the metrics every workload reports from its untraced
// phase: throughput, latency median and tail, set-up time and the phase's
// peak memory.
func (r *report) setE2ECommon(rate float64, lat []float64, window int, setups []time.Duration, mem memDelta) {
	r.setE2E("queries_per_s", rate, "1/s")
	r.setE2E("latency_p50_ms", median(lat), "ms")
	t := tailOverWindows(lat, window)
	r.setE2E("latency_tail_ms", t.Value, "ms")
	secs := make([]float64, len(setups))
	for i, s := range setups {
		secs[i] = s.Seconds()
	}
	r.setE2E("setup_s", median(secs), "s")
	r.setE2E("max_rss_mib", mem.peakRSSMiB, "MiB")
	rule := fmt.Sprintf("p%.4g, %d samples beyond it", t.Pct, t.Beyond)
	if t.Pct == 100 {
		rule = "the maximum: too few samples for a percentile with 10 beyond it"
	}
	r.note("latency_tail_ms is %s, in windows of %d samples, median of %d window(s); %d samples in all",
		rule, t.Window, t.Windows, len(lat))
	// The tail rule over the whole phase, without windows: it shows a stall
	// that the median over windows does not, at a noise far above the
	// end-to-end bounds, so it is a per-layer figure.
	rv, rp, rb := tailOf(sortedCopy(lat))
	r.note("whole-phase tail: p%.6g %.4g ms, %d samples beyond it", rp, rv, rb)
	r.setLayer("latency.tail_pct", t.Pct, "%")
	r.setLayer("latency.samples", float64(len(lat)), "count")
	r.setLayer("latency.run_tail_ms", rv, "ms")
	r.setLayer("latency.run_tail_pct", rp, "%")
	r.note("setup_s is the median of %d set-ups: %v", len(setups), setups)
}

// setErrors reports the error rate (failed ÷ attempted).
func (r *report) setErrors() {
	rate := 0.0
	if r.attempted > 0 {
		rate = float64(r.failed) / float64(r.attempted)
	}
	r.note("error_rate %g (%d failed of %d attempted)", rate, r.failed, r.attempted)
	r.setLayer("error_rate", rate, "ratio")
}

// memDelta is the Go runtime's allocation and GC-pause movement over a
// phase, and the phase's peak resident set.
type memDelta struct {
	alloc, pauseNs uint64
	peakRSSMiB     float64
}

// phaseWatch watches one measured phase's memory.
type phaseWatch struct {
	m0   runtime.MemStats
	done chan struct{}
	wg   sync.WaitGroup
	peak float64
}

// watchPhase starts watching a measured phase. It first returns set-up's
// garbage to the OS, so the phase's resident peak is the phase's own: what
// set-up leaves live (a memo, a pooled engine) still counts, set-up's
// transient heap does not. The resident set is sampled every 10 ms.
func watchPhase() *phaseWatch {
	debug.FreeOSMemory()
	w := &phaseWatch{done: make(chan struct{})}
	runtime.ReadMemStats(&w.m0)
	w.wg.Add(1)
	go func() {
		defer w.wg.Done()
		t := time.NewTicker(10 * time.Millisecond)
		defer t.Stop()
		for {
			w.peak = max(w.peak, rssMiB())
			select {
			case <-w.done:
				return
			case <-t.C:
			}
		}
	}()
	return w
}

// end stops the watch and returns the phase's movement.
func (w *phaseWatch) end() memDelta {
	var b runtime.MemStats
	runtime.ReadMemStats(&b)
	close(w.done)
	w.wg.Wait()
	return memDelta{
		alloc:      b.TotalAlloc - w.m0.TotalAlloc,
		pauseNs:    b.PauseTotalNs - w.m0.PauseTotalNs,
		peakRSSMiB: max(w.peak, rssMiB()),
	}
}

// rssMiB is the process's resident set size now.
func rssMiB() float64 {
	b, err := os.ReadFile("/proc/self/statm")
	if err != nil {
		return 0
	}
	f := strings.Fields(string(b))
	if len(f) < 2 {
		return 0
	}
	pages, _ := strconv.ParseFloat(f[1], 64)
	return pages * float64(os.Getpagesize()) / (1 << 20)
}

// setRuntime reports allocation per answered query and GC pause time over
// the untraced phase.
func (r *report) setRuntime(m memDelta, queries int) {
	per := 0.0
	if queries > 0 {
		per = float64(m.alloc) / float64(queries)
	}
	r.setLayer("runtime.alloc_bytes_per_query", per, "B")
	r.setLayer("runtime.gc_pause_ms", float64(m.pauseNs)/1e6, "ms")
}
