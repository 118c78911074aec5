package experiments

import (
	"os"
	"reflect"
	"testing"

	"haswellep/internal/bwmodel"
	"haswellep/internal/fault"
	"haswellep/internal/machine"
	"haswellep/internal/trace"
)

func TestChaosPlanAtZeroIsInert(t *testing.T) {
	p := ChaosPlanAt(7, 0)
	if p.Active() {
		t.Error("rate-0 chaos plan reports active faults")
	}
	base := machine.TestSystem(machine.COD)
	if !reflect.DeepEqual(p.Configure(base), base) {
		t.Error("rate-0 chaos plan degrades the machine config")
	}
	p = ChaosPlanAt(7, 0.1)
	if !p.Active() || p.QPILatencyFactor != 1.2 || p.DRAMLatencyFactor != 1.1 {
		t.Errorf("rate-0.1 plan wrong: %+v", p)
	}
}

// TestChaosRateZeroReproducesTable4: the acceptance criterion that the
// chaos harness at fault rate 0 measures exactly the baseline — same env
// plumbing, injector installed, but every cell byte-identical to Table4.
func TestChaosRateZeroReproducesTable4(t *testing.T) {
	if testing.Short() {
		t.Skip("long reproduction run; the -short race pass covers the fast tests")
	}
	base, err := Table4()
	if err != nil {
		t.Fatal(err)
	}
	env, err := NewEnvWithFaults(machine.COD, ChaosPlanAt(42, 0))
	if err != nil {
		t.Fatal(err)
	}
	faulted, err := Table4In(env)
	if err != nil {
		t.Fatal(err)
	}
	if base.Values != faulted.Values {
		t.Errorf("rate-0 chaos Table IV differs from baseline:\nbase:   %v\nfaulted: %v",
			base.Values, faulted.Values)
	}
	if c := env.E.Faults.Counters(); c != (fault.Counters{}) {
		t.Errorf("rate-0 sweep point accumulated fault counters: %+v", c)
	}
}

// TestChaosSweep runs a two-point sweep end to end (the invariant gate is
// inside ChaosSweep) and verifies determinism: re-measuring the faulted
// point from the same seed reproduces every latency cell and every counter.
func TestChaosSweep(t *testing.T) {
	if testing.Short() {
		t.Skip("long reproduction run; the -short race pass covers the fast tests")
	}
	const seed, rate = 0xC4A05, 0.08
	res, err := ChaosSweep(seed, []float64{0, rate})
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Points) != 2 || len(res.Table.Rows) != 2 {
		t.Fatalf("want 2 points, got %d", len(res.Points))
	}
	p0, p1 := res.Points[0], res.Points[1]
	if p0.FaultEvents != 0 || p0.Counters.PenaltyNs != 0 {
		t.Errorf("rate-0 point injected faults: %+v", p0.Counters)
	}
	if p1.FaultEvents == 0 || p1.Counters.PenaltyNs == 0 {
		t.Errorf("rate-%g point injected nothing: %+v", rate, p1.Counters)
	}
	if p1.Mean4() <= p0.Mean4() || p1.Mean5() <= p0.Mean5() {
		t.Errorf("faulted means not above baseline: T4 %.1f vs %.1f, T5 %.1f vs %.1f",
			p1.Mean4(), p0.Mean4(), p1.Mean5(), p0.Mean5())
	}
	if p1.RemoteReadGBps >= p0.RemoteReadGBps {
		t.Errorf("degraded remote-read bandwidth %.1f not below healthy %.1f",
			p1.RemoteReadGBps, p0.RemoteReadGBps)
	}
	again, err := chaosPoint(seed, rate)
	if err != nil {
		t.Fatal(err)
	}
	if again.Table4.Values != p1.Table4.Values || again.Table5.Values != p1.Table5.Values {
		t.Error("re-measured faulted point latencies differ: sweep is not deterministic")
	}
	if again.Counters != p1.Counters || again.FaultEvents != p1.FaultEvents {
		t.Errorf("re-measured counters differ:\n%+v\n%+v", again.Counters, p1.Counters)
	}
}

// TestMatrixMean pins the mean to the matrix dimensions: the divisor used
// to be hardcoded to 16, which silently mis-averages if the matrix shape
// ever changes alongside the topology.
func TestMatrixMean(t *testing.T) {
	var v [4][4]float64
	for i := range v {
		for j := range v[i] {
			v[i][j] = float64(i*len(v[i]) + j)
		}
	}
	// Mean of 0..15 is 7.5 regardless of how the cells are arranged.
	if got := matrixMean(v); got != 7.5 {
		t.Fatalf("matrixMean = %v, want 7.5", got)
	}
	uniform := [4][4]float64{}
	for i := range uniform {
		for j := range uniform[i] {
			uniform[i][j] = 3.25
		}
	}
	if got := matrixMean(uniform); got != 3.25 {
		t.Fatalf("matrixMean of a uniform matrix = %v, want 3.25", got)
	}
}

// TestFlightRecorderIsPureObserver is the no-overhead acceptance criterion:
// a sweep point measured with the flight recorder attached produces results
// byte-identical to one measured without it, and a clean run writes no
// bundles. The recorder only reads completed transactions, so this must
// hold exactly, not approximately.
func TestFlightRecorderIsPureObserver(t *testing.T) {
	if testing.Short() {
		t.Skip("long reproduction run; the -short race pass covers the fast tests")
	}
	const seed = 0xF11467
	rates := []float64{0, 0.08}
	bare, err := ChaosSweepOpts(seed, rates, ChaosOptions{})
	if err != nil {
		t.Fatal(err)
	}
	dir := t.TempDir()
	recorded, err := ChaosSweepOpts(seed, rates, ChaosOptions{BundleDir: dir})
	if err != nil {
		t.Fatal(err)
	}
	if bare.Table.String() != recorded.Table.String() {
		t.Errorf("recorder changed the sweep summary:\nwithout:\n%s\nwith:\n%s",
			bare.Table.String(), recorded.Table.String())
	}
	for i := range bare.Points {
		b, r := bare.Points[i], recorded.Points[i]
		if b.Table4.Values != r.Table4.Values {
			t.Errorf("rate %g: Table IV differs with recorder attached", b.Rate)
		}
		if b.Counters != r.Counters || b.FaultEvents != r.FaultEvents {
			t.Errorf("rate %g: fault counters differ with recorder attached:\n%+v\n%+v",
				b.Rate, b.Counters, r.Counters)
		}
		if b.Traffic != r.Traffic {
			t.Errorf("rate %g: traffic stats differ with recorder attached", b.Rate)
		}
	}
	ents, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	if len(ents) != 0 {
		t.Errorf("clean sweep wrote %d bundles: %v", len(ents), ents)
	}
}

// TestSolveMaxMinCaptured: the env's solver entry point logs each
// invocation into an attached flight recorder — the capture a replay later
// verifies bit for bit — and stays a pure pass-through when no recorder is
// attached.
func TestSolveMaxMinCaptured(t *testing.T) {
	env := NewEnv(machine.SourceSnoop)
	flows := bwmodel.UniformFlows(3, 1e9, map[int]float64{0: 1})
	caps := []float64{2.5e9}

	// No recorder attached: solve works, nothing to log into.
	bare := env.SolveMaxMin(flows, caps)
	if got, want := bwmodel.Sum(bare), 2.5e9; got != want {
		t.Fatalf("unrecorded solve: Sum = %v, want %v", got, want)
	}

	tr := env.AttachFlightRecorder(t.TempDir(), 0)
	alloc := env.SolveMaxMin(flows, caps)
	solves := tr.FlowSolves()
	if len(solves) != 1 {
		t.Fatalf("recorder captured %d solves, want 1", len(solves))
	}
	if got, want := solves[0].AllocBits, trace.AllocBits(alloc); !reflect.DeepEqual(got, want) {
		t.Errorf("captured AllocBits %v, want %v", got, want)
	}
	if !reflect.DeepEqual(solves[0].Flows, flows) || !reflect.DeepEqual(solves[0].Caps, caps) {
		t.Errorf("captured inputs differ from the solve's inputs")
	}

	// The capture must be a deep copy: mutating the caller's slices after
	// the solve must not reach into the recorded invocation.
	caps[0] = 0
	if tr.FlowSolves()[0].Caps[0] != 2.5e9 {
		t.Errorf("recorded caps alias the caller's slice")
	}
}
