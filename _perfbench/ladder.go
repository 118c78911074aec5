package main

import (
	"fmt"
	"runtime"
	"time"

	"haswellep/internal/addr"
	"haswellep/internal/bench"
	"haswellep/internal/bwmodel"
	"haswellep/internal/coherence"
	"haswellep/internal/experiments"
	"haswellep/internal/fault"
	"haswellep/internal/invariant"
	"haswellep/internal/machine"
	"haswellep/internal/mesif"
	"haswellep/internal/placement"
	"haswellep/internal/topology"
	"haswellep/internal/trace"
)

// The ladder replays a sample of a workload's own queries through the same
// public calls RunWhatIf and the chaos sweep make, adding one layer per
// rung; a layer's self time is the difference between adjacent rungs.
const (
	rungBare     = iota // machine.New + mesif.New, placement.New
	rungDirty           // + SetDirtyTracking(true)
	rungEnv             // the deployed env: NewEnvCfg / NewEnvWithFaultsProto
	rungCheck           // + invariant.Check at the end
	rungRecorder        // + AttachFlightRecorder
	rungs
)

// chaosLadderCells is how many Table IV cells (the first row, in the
// sweep's order) a chaos item replays: the fault injector's state depends
// only on the cells before, so the prefix reproduces the served cells bit
// for bit at an eighth of a point's cost.
const chaosLadderCells = 2

// ladderItem is one sampled query and the answer the workload served.
type ladderItem struct {
	spec   experiments.WhatIfSpec
	served experiments.WhatIfAnswer
	// Chaos items replay the first cells of a sweep point instead.
	chaos      bool
	seed       int64
	rate       float64
	servedRow  [4]float64
	recordsDir string
}

func (it ladderItem) name() string {
	if it.chaos {
		return "chaos " + chaosKey(it.seed, it.rate)
	}
	return it.spec.Key()
}

// sample is the checker cadence the deployed env runs the item at.
func (it ladderItem) sample() int {
	if it.chaos && it.rate > 0 {
		return 1
	}
	return 16
}

func (it ladderItem) proto() coherence.ID {
	if it.chaos {
		return coherence.MESIF
	}
	return it.spec.Protocol
}

func (it ladderItem) plan() fault.Plan { return experiments.ChaosPlanAt(it.seed, it.rate) }

// build constructs the item's engine for rung r, and the deployed env's
// construction time on the env rungs.
func (it ladderItem) build(r int) (*experiments.Env, *trace.Recorder, time.Duration, error) {
	if r >= rungEnv {
		t := time.Now()
		var env *experiments.Env
		var err error
		if it.chaos {
			env, err = experiments.NewEnvWithFaultsProto(machine.COD, it.plan(), it.proto())
		} else {
			env, err = experiments.NewEnvCfg(it.spec.Config())
		}
		built := time.Since(t)
		if err != nil {
			return nil, nil, 0, err
		}
		var rec *trace.Recorder
		if r == rungRecorder {
			rec = env.AttachFlightRecorder(it.recordsDir, 0)
		}
		return env, rec, built, nil
	}
	cfg := it.spec.Config()
	if it.chaos {
		cfg = machine.TestSystem(machine.COD)
		cfg.Protocol = it.proto()
		cfg = it.plan().Configure(cfg)
	}
	m, err := machine.New(cfg)
	if err != nil {
		return nil, nil, 0, err
	}
	e := mesif.New(m)
	if it.chaos {
		inj, err := fault.NewInjector(it.plan())
		if err != nil {
			return nil, nil, 0, err
		}
		e.Faults = inj
	}
	if r == rungDirty {
		e.SetDirtyTracking(true)
	}
	return &experiments.Env{Mode: cfg.Mode, M: m, E: e, P: placement.New(e)}, nil, 0, nil
}

// work is one replay's timing and deterministic work counts.
type work struct {
	vals                   []float64
	total, place           time.Duration
	tx, placeTx            uint64
	snoops, bcasts, dirHit uint64
	hitmeHits, hitmeLooks  uint64
}

// step times one placement and the measurement after it, and reads the
// engine and directory-cache counters before the next env.Fresh clears
// them.
func (w *work) step(env *experiments.Env, place func(), measure func() float64) {
	t0 := time.Now()
	place()
	t1 := time.Now()
	ps := env.E.Stats()
	t2 := time.Now()
	w.vals = append(w.vals, measure())
	t3 := time.Now()
	w.place += t1.Sub(t0)
	w.total += t1.Sub(t0) + t3.Sub(t2)
	st := env.E.Stats()
	w.tx += st.Reads + st.Writes + st.Flushes
	w.placeTx += ps.Reads + ps.Writes + ps.Flushes
	w.snoops += st.SnoopsSent
	w.bcasts += st.Broadcasts
	w.dirHit += st.DirHits
	for _, ha := range env.M.HAs {
		if ha.HitME != nil {
			h, m, _, _ := ha.HitME.Stats()
			w.hitmeHits += h
			w.hitmeLooks += h + m
		}
	}
}

// replay performs the item's work on env with the calls RunWhatIf (or the
// sweep's Table4In) makes, returning the measured values in answer order.
func (it ladderItem) replay(env *experiments.Env) work {
	var w work
	if it.chaos {
		for home := 0; home < chaosLadderCells; home++ {
			const fwd = 0
			env.Fresh()
			r := env.Alloc(home, experiments.SizeL3n)
			placer, reader := sharerCores(env, fwd, home)
			w.step(env, func() {
				env.P.Shared(r, placer, reader)
				env.E.EvictDirectoryCache(r)
			}, func() float64 { return bench.Latency(env.E, 0, r).MeanNs })
		}
		return w
	}
	s := it.spec
	point := func(to int, measure func(core topology.CoreID, r addr.Region) float64) {
		core, owner := env.FirstCore(s.From), env.FirstCore(to)
		r := env.Alloc(to, s.SizeBytes)
		env.Fresh()
		w.step(env, func() {
			env.P.Modified(owner, r)
			env.P.FlushAll(owner, r)
		}, func() float64 { return measure(core, r) })
	}
	latency := func(core topology.CoreID, r addr.Region) float64 { return bench.Latency(env.E, core, r).MeanNs }
	switch s.Kind {
	case experiments.WhatIfLatency:
		point(s.To, latency)
	case experiments.WhatIfBandwidth:
		point(s.To, func(core topology.CoreID, r addr.Region) float64 {
			return bwmodel.ReadStream(env.E, core, r, bwmodel.AVX256, bwmodel.ConcurrencyFor(env.Mode)).GBps
		})
	case experiments.WhatIfPlacement:
		for to := 0; to < env.M.Topo.Nodes(); to++ {
			point(to, latency)
		}
	}
	return w
}

// sharerCores picks the Table IV placer (a core of the home node) and
// reader (a core of the forwarding node), never core 0, which measures.
func sharerCores(env *experiments.Env, fwd, home int) (placer, reader topology.CoreID) {
	pick := func(node int, avoid topology.CoreID) topology.CoreID {
		for _, c := range env.M.Topo.CoresOfNode(topology.NodeID(node)) {
			if c != 0 && c != avoid {
				return c
			}
		}
		return 0
	}
	placer = pick(home, 0)
	reader = pick(fwd, placer)
	return placer, reader
}

// want is the served answer's measured values, in replay order.
func (it ladderItem) want() []float64 {
	switch {
	case it.chaos:
		return it.servedRow[:chaosLadderCells]
	case it.served.Latency != nil:
		return []float64{it.served.Latency.Ns}
	case it.served.Bandwidth != nil:
		return []float64{it.served.Bandwidth.SingleGBps}
	case it.served.Placement != nil:
		return it.served.Placement.LatencyNs
	}
	return nil
}

// ladderResult aggregates the ladder over the sample.
type ladderResult struct {
	items int
	// rung is the summed replay time per rung (fastest pass per item).
	rung [rungs]time.Duration
	// first is the deterministic work of the bare rung.
	first work
	// env-rung placement and total time, for placement.share.
	envPlace, envTotal time.Duration
	// checker self time and transactions by checker cadence.
	checkerTime map[int]time.Duration
	checkerTx   map[int]uint64
	checkMs     []float64
	stale       int
	buildMs     []float64
	rearmMs     []float64
}

// runLadder replays every item at every rung, passes times, keeping each
// (item, rung)'s fastest pass. Odd passes walk the rungs top down, so no
// rung always runs first. Every rung must reproduce the served values
// bit for bit, and the deployed env's checks must find no hard violation.
func runLadder(items []ladderItem, passes int) (ladderResult, error) {
	res := ladderResult{items: len(items), checkerTime: map[int]time.Duration{}, checkerTx: map[int]uint64{}}
	for _, it := range items {
		var best [rungs]time.Duration
		var envPlace time.Duration
		var itemTx uint64
		for p := 0; p < passes; p++ {
			for step := 0; step < rungs; step++ {
				r := step
				if p%2 == 1 {
					r = rungs - 1 - step
				}
				env, rec, built, err := it.build(r)
				if err != nil {
					return res, fmt.Errorf("ladder %s rung %d: %w", it.name(), r, err)
				}
				// Start every rung from a collected heap, so one rung's
				// garbage is not charged to the next.
				runtime.GC()
				w := it.replay(env)
				dur := w.total
				if r >= rungCheck {
					t := time.Now()
					found := invariant.Check(env.M)
					ck := time.Since(t)
					dur += ck
					if hard := invariant.Hard(found); len(hard) != 0 {
						return res, fmt.Errorf("ladder %s: %d hard violations, first: %v", it.name(), len(hard), hard[0])
					}
					if r == rungCheck && p == 0 {
						res.checkMs = append(res.checkMs, float64(ck)/1e6)
						res.stale += len(found)
					}
				}
				if rec != nil {
					rec.Detach()
				}
				if err := matchValues(w.vals, it.want()); err != nil {
					return res, fmt.Errorf("ladder %s rung %d does not reproduce the served answer: %w", it.name(), r, err)
				}
				if r >= rungEnv {
					if err := env.Check.Err(); err != nil {
						return res, fmt.Errorf("ladder %s rung %d: %w", it.name(), r, err)
					}
				}
				if p == 0 && r == rungBare {
					res.first.add(w)
					itemTx = w.tx
				}
				if r == rungEnv && p == 0 {
					res.buildMs = append(res.buildMs, float64(built)/1e6)
					t := time.Now()
					if env.Rearm(it.plan(), it.proto()) == nil {
						res.rearmMs = append(res.rearmMs, float64(time.Since(t))/1e6)
					}
				}
				if p == 0 || dur < best[r] {
					best[r] = dur
					if r == rungEnv {
						envPlace = w.place
					}
				}
			}
		}
		for r := range best {
			res.rung[r] += best[r]
		}
		res.envPlace += envPlace
		res.envTotal += best[rungEnv]
		res.checkerTime[it.sample()] += best[rungEnv] - best[rungDirty]
		res.checkerTx[it.sample()] += itemTx
	}
	return res, nil
}

func (w *work) add(o work) {
	w.total += o.total
	w.place += o.place
	w.tx += o.tx
	w.placeTx += o.placeTx
	w.snoops += o.snoops
	w.bcasts += o.bcasts
	w.dirHit += o.dirHit
	w.hitmeHits += o.hitmeHits
	w.hitmeLooks += o.hitmeLooks
}

// matchValues requires bit-identical values.
func matchValues(got, want []float64) error {
	if len(got) != len(want) {
		return fmt.Errorf("%d values, served %d", len(got), len(want))
	}
	for i := range got {
		if got[i] != want[i] {
			return fmt.Errorf("value %d is %v, served %v", i, got[i], want[i])
		}
	}
	return nil
}
