// Package experiments reproduces every table and figure of the paper's
// evaluation (Sections VI–VIII): each Table*/Fig* function builds the
// machine in the required coherence configuration, runs the placement and
// measurement the paper describes, and returns the results in report form
// together with paper-vs-measured comparisons.
//
// The experiment ids match DESIGN.md's index: table1–table8, fig4–fig10.
//
//hsw:tier harness
package experiments

import (
	"fmt"

	"haswellep/internal/addr"
	"haswellep/internal/bench"
	"haswellep/internal/bwmodel"
	"haswellep/internal/coherence"
	"haswellep/internal/fault"
	"haswellep/internal/invariant"
	"haswellep/internal/machine"
	"haswellep/internal/mesif"
	"haswellep/internal/placement"
	"haswellep/internal/topology"
	"haswellep/internal/trace"
	"haswellep/internal/units"
)

// Env is one experiment's machine instance. Every env runs with the
// incremental invariant checker attached (invariant.AttachIncrementalOpts,
// triage fidelity): a healthy env validates every 16th transaction's dirty
// set — a violating state persists until repaired, so on the revisited
// working sets the experiments measure it is still caught within a few
// transactions of appearing — while an env whose fault plan actively
// injects validates after every single transaction, pinning any
// unrecovered fault to the exact transaction that exposed it (the chaos
// sweep's per-transaction gate). Findings land in Check; experiments
// consult Check.Err after (or during) a run.
type Env struct {
	Mode machine.SnoopMode
	M    *machine.Machine
	E    *mesif.Engine
	P    *placement.Placer

	// Check records every hard violation the always-on incremental
	// checker finds (and counts stale findings). A healthy engine keeps
	// Check.Err() nil for any workload.
	Check *invariant.Recorder

	// tr is the attached flight recorder, nil until
	// AttachFlightRecorder; SolveMaxMin logs solver invocations into it.
	tr *trace.Recorder

	// detach unhooks the always-on incremental checker; Rearm uses it to
	// swap in a fresh checker and recorder when the env is pooled across
	// experiment points.
	detach func()

	// lastAlloc is the most recent Alloc result (see lastRegion).
	lastAlloc addr.Region

	// memo is the placed-state memo placeFlushed consults (the
	// process-wide placedMemo for every env newEnv builds); nil replays
	// every placement.
	memo *placedStore
	// freshSeq is the engine's sequence number at the last Fresh (or at
	// construction or Rearm, which leave the machine just as empty): the
	// machine holds nothing while Seq has not moved past it.
	freshSeq uint64
}

// NewEnv builds a fresh test-system machine in the given mode, running the
// default MESIF protocol.
func NewEnv(mode machine.SnoopMode) *Env {
	return NewEnvProto(mode, coherence.MESIF)
}

// NewEnvProto builds a fresh test-system machine in the given mode running
// the given coherence protocol.
func NewEnvProto(mode machine.SnoopMode, proto coherence.ID) *Env {
	cfg := machine.TestSystem(mode)
	cfg.Protocol = proto
	m := machine.MustNew(cfg)
	return newEnv(mode, m, mesif.New(m))
}

// NewEnvCfg builds an env on an arbitrary validated machine configuration
// — the what-if serving layer's constructor, where geometry (sockets, die
// variant) varies per query instead of being pinned to the test system.
func NewEnvCfg(cfg machine.Config) (*Env, error) {
	m, err := machine.New(cfg)
	if err != nil {
		return nil, err
	}
	return newEnv(cfg.Mode, m, mesif.New(m)), nil
}

// NewEnvWithFaults builds a test-system machine in the given mode with the
// fault plan installed: the plan's static degradation is folded into the
// machine configuration and its injector is attached to the engine. The
// injector is NOT reset by Fresh, so one env executes one deterministic
// fault schedule across all its measurements.
func NewEnvWithFaults(mode machine.SnoopMode, plan fault.Plan) (*Env, error) {
	return NewEnvWithFaultsProto(mode, plan, coherence.MESIF)
}

// NewEnvWithFaultsProto is NewEnvWithFaults under an explicit coherence
// protocol.
func NewEnvWithFaultsProto(mode machine.SnoopMode, plan fault.Plan, proto coherence.ID) (*Env, error) {
	cfg := machine.TestSystem(mode)
	cfg.Protocol = proto
	m, err := machine.New(plan.Configure(cfg))
	if err != nil {
		return nil, err
	}
	inj, err := fault.NewInjector(plan)
	if err != nil {
		return nil, err
	}
	e := mesif.New(m)
	e.Faults = inj
	return newEnv(mode, m, e), nil
}

// newEnv finishes env construction: placement, and the always-on
// incremental invariant checker feeding env.Check. Faulted engines are
// checked after every transaction; healthy ones every 16th. Periodic full
// Checks are disabled (the experiment machines cache enough lines that
// even a rare full Check dominates the run) — harnesses that want one run
// invariant.Check explicitly, as the chaos sweep does per point.
func newEnv(mode machine.SnoopMode, m *machine.Machine, e *mesif.Engine) *Env {
	env := &Env{Mode: mode, M: m, E: e, P: placement.New(e), memo: placedMemo, freshSeq: e.Seq()}
	env.attachChecker()
	return env
}

// attachChecker installs a fresh incremental checker and recorder on the
// env's engine, choosing the cadence from the engine's current fault plan.
func (env *Env) attachChecker() {
	rec := &invariant.Recorder{}
	o := invariant.IncrementalOptions{Epoch: invariant.NoEpoch, Sample: 16, Fast: true}
	if env.E.Faults != nil && env.E.Faults.Plan().Active() {
		// Dynamic faults can strike: check every transaction, so an
		// unrecovered fault is pinned to the transaction that exposed it.
		// An inert (rate-0) plan is documented to behave identically to
		// no injector at all, and keeps the sampled cadence.
		o.Sample = 1
	}
	env.detach = invariant.AttachIncrementalOpts(env.E, o, rec.Record)
	env.Check = rec
}

// Rearm returns a pooled env to a state indistinguishable from one freshly
// built by NewEnvWithFaultsProto(env.Mode, plan, proto): the machine is
// reconfigured onto the plan's degraded latency parameters and
// power-cycled (caches, directories, statistics, and the allocation map
// all cleared), a fresh deterministic injector replaces the old one,
// engine statistics reset, and a fresh incremental checker and recorder
// are attached at the cadence the new plan demands. It fails — leaving the
// env unusable for measurement — only when the requested configuration
// differs structurally from the pooled machine (e.g. a different
// protocol), in which case the caller builds a fresh env instead.
//
// The experiment farm's worker pools (farm.Ctx.Keep) use this to reuse one
// machine across a sweep's points; the chaos sweep's serial-vs-farm
// differential test is the proof that reuse is behaviorally invisible.
func (env *Env) Rearm(plan fault.Plan, proto coherence.ID) error {
	cfg := machine.TestSystem(env.Mode)
	cfg.Protocol = proto
	if err := env.M.Reconfigure(plan.Configure(cfg)); err != nil {
		return err
	}
	inj, err := fault.NewInjector(plan)
	if err != nil {
		return err
	}
	env.detach()
	env.M.PowerCycle()
	env.E.Faults = inj
	env.E.ResetStats()
	env.E.WorkingSet = 0
	env.tr = nil
	env.lastAlloc = addr.Region{}
	env.freshSeq = env.E.Seq()
	env.attachChecker()
	return nil
}

// FirstCore returns the first core of a NUMA node, the core the paper's
// measurements use for placement and measurement in each node.
func (env *Env) FirstCore(node int) topology.CoreID {
	return env.M.Topo.CoresOfNode(topology.NodeID(node))[0]
}

// SecondCore returns the second core of a NUMA node.
func (env *Env) SecondCore(node int) topology.CoreID {
	return env.M.Topo.CoresOfNode(topology.NodeID(node))[1]
}

// Alloc reserves a fresh buffer homed on the node.
func (env *Env) Alloc(node int, size int64) addr.Region {
	env.lastAlloc = env.M.MustAlloc(topology.NodeID(node), size)
	return env.lastAlloc
}

// Fresh resets all cached state (placements stay valid).
func (env *Env) Fresh() {
	env.M.Reset()
	env.E.ResetStats()
	env.freshSeq = env.E.Seq()
}

// justFresh reports whether no transaction has run since the last Fresh.
func (env *Env) justFresh() bool { return env.E.Seq() == env.freshSeq }

// AttachFlightRecorder attaches a trace flight recorder to the env's
// engine and arms Check to write a repro bundle into dir on the first hard
// violation (Check.BundlePath names it afterwards; Check.Err mentions it).
// capacity bounds the recorder's ring, 0 meaning trace.DefaultCapacity —
// a run longer than the ring still captures a bundle, but a truncated one
// that documents the failure without being replayable. The recorder only
// observes (its digest is its own; engine stats are untouched), so results
// with it attached are byte-identical to results without.
func (env *Env) AttachFlightRecorder(dir string, capacity int) *trace.Recorder {
	tr := trace.Attach(env.E, trace.Options{Capacity: capacity})
	env.Check.CaptureTo(tr, dir)
	env.tr = tr
	return tr
}

// SolveMaxMin runs the multi-flow bandwidth solver and, when a flight
// recorder is attached, logs the invocation so a captured bundle verifies
// the solver's allocations bit-for-bit on replay. Harness code measuring
// bandwidth points must call this instead of bwmodel.MaxMin directly —
// otherwise the solve escapes the capture.
func (env *Env) SolveMaxMin(flows []bwmodel.Flow, caps []float64) []float64 {
	alloc := bwmodel.MaxMin(flows, caps)
	if env.tr != nil {
		env.tr.RecordFlowSolve(flows, caps, alloc)
	}
	return alloc
}

// Standard dataset sizes the point measurements use: comfortably inside the
// target level for the modeled geometries.
const (
	SizeL1  = 16 * units.KiB
	SizeL2  = 160 * units.KiB
	SizeL3  = 8 * units.MiB
	SizeL3n = 4 * units.MiB // per-COD-node L3 working set
	SizeMem = 16 * units.MiB
)

// latencyOf is the common "place, then measure from core" helper; it resets
// the machine first so experiments are independent.
func (env *Env) latencyOf(core topology.CoreID, r addr.Region, place func()) bench.LatencyStat {
	env.Fresh()
	place()
	return bench.Latency(env.E, core, r)
}

// fmtNs formats a nanosecond value like the paper's tables.
func fmtNs(v float64) string { return fmt.Sprintf("%.1f", v) }

// fmtGB formats a GB/s value like the paper's tables.
func fmtGB(v float64) string { return fmt.Sprintf("%.1f", v) }

// Source aliases used by the figure code.
const (
	srcMemory        = mesif.SrcMemory
	srcMemoryForward = mesif.SrcMemoryForward
)
