package main

import (
	"fmt"
	"net/http"
	"os"
	"path/filepath"
	"strings"
	"time"

	"haswellep/internal/server"
)

// Set-up counts: setup_s is the median over a run's set-ups, and the last
// set-up is the one measured. A cold set-up is about 80 ms, so it is timed
// more often than a warm one (about 1.5 s).
const (
	coldSetups = 9
	warmSetups = 5
)

// ladderMaxBytes caps the size of the what-if queries the ladder samples,
// keeping its five-rung replay short.
const ladderMaxBytes = 4 << 20

// runCold measures the whatif-cold workload: one-query batches, every one
// a journal miss, from 2 closed-loop clients.
func runCold(o opts) (*report, error) {
	rep := newReport()
	gen := newColdGen(o.seed)
	var setupTimes []time.Duration
	var h *harness
	for i := 0; i < coldSetups; i++ {
		t := time.Now()
		hh, err := coldServer(filepath.Join(o.dir, fmt.Sprintf("cold-%d", i)), o.exp, nil)
		if err != nil {
			return nil, err
		}
		setupTimes = append(setupTimes, time.Since(t))
		if h != nil {
			if err := h.close(); err != nil {
				return nil, err
			}
		}
		h = hh
	}

	fl := &failLog{}
	st0, err := h.statz()
	if err != nil {
		return nil, err
	}
	w := watchPhase()
	res, served, done := coldPhase(h, gen, o.exp, nil, o.phase(), fl)
	mem := w.end()
	st1, err := h.statz()
	if err != nil {
		return nil, err
	}
	lat := res.streamLatencies()
	whole := wholeWindows(lat, coldWindow)
	rep.note("latencies are over the stream's first %d queries (whole blocks of %d) of %d completed", len(whole), coldWindow, len(lat))
	rep.setE2ECommon(res.rate, whole, coldWindow, setupTimes, mem)
	if err := h.close(); err != nil {
		return nil, err
	}
	rep.addPhase(res.attempted, res.failed)
	dc := delta(st0, st1)
	rep.gateServer(dc)
	if dc.CacheHits != 0 {
		rep.fail("whatif-cold: %d cache hits; every cold query must be a journal miss", dc.CacheHits)
	}
	if int(dc.Executed) != res.queries() {
		rep.fail("whatif-cold: server executed %d points for %d answered queries", dc.Executed, res.queries())
	}
	completed := make([]server.Query, len(done))
	for i, idx := range done {
		completed[i] = gen.query(idx)
	}
	mx := summarize(completed)
	rep.note("served %d answers, digest %s (sorted by memo key); mix kind %v mode %v size %v",
		len(served), servedDigest(served), mx.Kind, mx.Mode, mx.Size)
	rep.setErrors()
	if !o.trace {
		return rep, nil
	}

	rep.setServer(dc)
	rep.setRuntime(mem, res.queries())
	rep.setLayer("placement.recipe_reuse", mx.RecipeReuse, "ratio")
	// The traced phase, then the untraced phase again: each runs the same
	// stream from its start on a fresh server.
	tr := newTracer()
	var phases []loopResult
	for _, ptr := range []*tracer{tr, nil} {
		ph, err := coldServer(filepath.Join(o.dir, fmt.Sprintf("cold-phase-%d", len(phases))), o.exp, ptr)
		if err != nil {
			return nil, err
		}
		pres, _, _ := coldPhase(ph, gen, o.exp, ptr, o.phase(), fl)
		if err := ph.close(); err != nil {
			return nil, err
		}
		rep.addPhase(pres.attempted, pres.failed)
		phases = append(phases, pres)
	}
	rep.setSpans(tr, phases[0].wall)
	rep.setOverhead(abaRatio(res.byID(), phases[0].byID(), phases[1].byID()))
	if err := saveSpans(o, tr); err != nil {
		return nil, err
	}

	// The ladder samples the first completed query of each kind that is
	// no larger than ladderMaxBytes.
	var items []ladderItem
	seen := map[string]bool{}
	for _, q := range completed {
		if seen[q.Kind] || q.SizeBytes > ladderMaxBytes {
			continue
		}
		it, err := whatIfItem(q, served, o)
		if err != nil {
			return nil, err
		}
		seen[q.Kind] = true
		items = append(items, it)
	}
	rep.ladder(items, 4)
	rep.chaosProbe(o, fl)
	return rep, nil
}

// coldWarmUp is the cold set-up's warm-up batch: one L2-sized query of
// each kind, under a label no measured query carries, so the measured
// stream still misses the journal on every query.
var coldWarmUp = []server.Query{
	{Kind: "latency", Mode: "source", Protocol: "mesif", ToNode: 1, SizeBytes: 256 << 10, Label: "warmup"},
	{Kind: "bandwidth", Mode: "source", Protocol: "mesif", ToNode: 1, SizeBytes: 256 << 10, Cores: 1, Label: "warmup"},
	{Kind: "placement", Mode: "cod", Protocol: "mesif", SizeBytes: 256 << 10, Label: "warmup"},
}

// coldServer starts a server on a fresh journal and sends it the warm-up
// batch, checking its answers.
func coldServer(dir string, exp *expected, tr *tracer) (*harness, error) {
	h, err := startServer(dir, tr)
	if err != nil {
		return nil, err
	}
	status, body, err := h.post(encodeBatch(coldWarmUp), nil)
	if err == nil && status != http.StatusOK {
		err = fmt.Errorf("status %d", status)
	}
	if err == nil {
		_, err = checkResults(body, coldWarmUp, exp)
	}
	if err != nil {
		_ = h.close()
		return nil, fmt.Errorf("cold warm-up: %w", err)
	}
	return h, nil
}

// runWarm measures the whatif-warm workload: skewed multi-query batches
// over a pre-populated key set, so every answer is a journal hit.
func runWarm(o opts) (*report, error) {
	rep := newReport()
	const warmup = 250 // requests per client, excluded from the measurement
	fl := &failLog{}
	var setupTimes []time.Duration
	var ws *warmState
	for i := 0; i < warmSetups; i++ {
		t := time.Now()
		w, err := setupWarm(filepath.Join(o.dir, fmt.Sprintf("warm-%d", i)), o.seed, o.exp, nil)
		if err != nil {
			return nil, err
		}
		wu := warmPhase(w, o.exp, nil, 0, warmup, fl)
		rep.addPhase(wu.attempted, wu.failed)
		setupTimes = append(setupTimes, time.Since(t))
		if ws != nil {
			if err := ws.h.close(); err != nil {
				return nil, err
			}
		}
		ws = w
	}

	st0, err := ws.h.statz()
	if err != nil {
		return nil, err
	}
	w := watchPhase()
	res := warmPhase(ws, o.exp, nil, o.phase(), 0, fl)
	mem := w.end()
	st1, err := ws.h.statz()
	if err != nil {
		return nil, err
	}
	rep.setE2ECommon(res.rate, res.latencies(), warmWindow, setupTimes, mem)
	if !o.trace {
		if err := ws.h.close(); err != nil {
			return nil, err
		}
	}
	rep.addPhase(res.attempted, res.failed)
	dc := delta(st0, st1)
	rep.gateServer(dc)
	if dc.Executed != 0 {
		rep.fail("whatif-warm: the server executed %d points in the measured phase; every query must be a journal hit", dc.Executed)
	}
	if int(dc.CacheHits) != res.attempted {
		rep.fail("whatif-warm: %d cache hits for %d query slots", dc.CacheHits, res.attempted)
	}
	rep.note("served %d distinct answers, digest %s (sorted by memo key); %d requests of %d queries",
		len(ws.answers), servedDigest(ws.answers), len(res.samples), warmBatch)
	rep.setErrors()
	if !o.trace {
		return rep, nil
	}

	rep.setServer(dc)
	rep.setRuntime(mem, res.queries())
	rep.setLayer("placement.recipe_reuse", 0, "ratio") // nothing executes
	// The traced phase on a traced server, then the untraced phase again
	// on the measured server.
	tr := newTracer()
	tw, err := setupWarm(filepath.Join(o.dir, "warm-traced"), o.seed, o.exp, tr)
	if err != nil {
		return nil, err
	}
	twu := warmPhase(tw, o.exp, nil, 0, warmup, fl)
	tres := warmPhase(tw, o.exp, tr, o.phase(), 0, fl)
	if err := tw.h.close(); err != nil {
		return nil, err
	}
	again := warmPhase(ws, o.exp, nil, o.phase(), 0, fl)
	if err := ws.h.close(); err != nil {
		return nil, err
	}
	for _, ph := range []loopResult{twu, tres, again} {
		rep.addPhase(ph.attempted, ph.failed)
	}
	rep.setSpans(tr, tres.wall)
	p50 := func(l loopResult) map[int]float64 { return map[int]float64{0: median(l.latencies())} }
	rep.setOverhead(abaRatio(p50(res), p50(tres), p50(again)))
	if err := saveSpans(o, tr); err != nil {
		return nil, err
	}

	var items []ladderItem
	seen := map[string]bool{}
	for _, q := range warmSet(o.seed) {
		if seen[q.Kind] {
			continue
		}
		it, err := whatIfItem(q, ws.answers, o)
		if err != nil {
			return nil, err
		}
		seen[q.Kind] = true
		items = append(items, it)
	}
	rep.ladder(items, 4)
	return rep, nil
}

// whatIfItem makes a ladder item of a served what-if query.
func whatIfItem(q server.Query, served map[string][]byte, o opts) (ladderItem, error) {
	spec, err := q.Spec()
	if err != nil {
		return ladderItem{}, err
	}
	ans, err := decodeAnswer(served[spec.Key()])
	if err != nil {
		return ladderItem{}, fmt.Errorf("served answer of %s: %w", spec.Key(), err)
	}
	return ladderItem{spec: spec, served: ans, recordsDir: o.dir}, nil
}

// gateServer fails the run on any degraded or shed query.
func (r *report) gateServer(d counterDelta) {
	if d.Degraded != 0 || d.Shed != 0 {
		r.fail("server degraded %d points and shed %d batches", d.Degraded, d.Shed)
	}
}

// setServer reports the /statz counter movement over the untraced phase.
func (r *report) setServer(d counterDelta) {
	r.setLayer("server.cache_hits", float64(d.CacheHits), "count")
	r.setLayer("server.executed", float64(d.Executed), "count")
	r.setLayer("server.coalesced", float64(d.Coalesced), "count")
	r.setLayer("server.shed", float64(d.Shed), "count")
	r.setLayer("server.degraded", float64(d.Degraded), "count")
}

// setSpans derives the span-based layer metrics of the traced phase.
func (r *report) setSpans(tr *tracer, wall time.Duration) {
	spans := tr.snapshot()
	self := selfTimes(spans)
	byID := map[int64]span{}
	for _, s := range spans {
		byID[s.ID] = s
	}
	var handlerSelf, dispatch []float64
	perKind := map[string][]float64{}
	var busy time.Duration
	for _, s := range spans {
		switch {
		case s.Name == "server.handler":
			handlerSelf = append(handlerSelf, ms(self[s.ID]))
		case strings.HasPrefix(s.Name, "experiments.RunWhatIf/"):
			kind := strings.TrimPrefix(s.Name, "experiments.RunWhatIf/")
			perKind[kind] = append(perKind[kind], ms(s.dur()))
			busy += s.dur()
			if p, ok := byID[s.Parent]; ok && p.Name == "server.handler" {
				dispatch = append(dispatch, ms(s.Start-p.Start))
			}
		}
	}
	r.setLayer("server.self_ms_p50", median(handlerSelf), "ms")
	r.setLayer("farm.dispatch_ms_p50", median(dispatch), "ms")
	for _, k := range []string{"latency", "bandwidth", "placement", "chaos"} {
		r.setLayer("experiments.runwhatif_ms_p50."+k, median(perKind[k]), "ms")
	}
	eff := 0.0
	if wall > 0 {
		eff = busy.Seconds() / (2 * wall.Seconds())
	}
	r.setLayer("farm.parallel_efficiency", eff, "ratio")
	r.note("traced phase: %d spans", len(spans))
}

// setOverhead reports the tracing overhead from the ratio of traced to
// untraced latency. The traced phase runs between two untraced ones and is
// compared with their mean, so a steady drift in machine speed cancels.
func (r *report) setOverhead(ratio float64) {
	pct := 0.0
	if ratio > 0 {
		pct = (ratio - 1) * 100
	}
	r.setLayer("trace.overhead_pct", pct, "%")
	r.note("tracing overhead: traced latency is %+.2f%% of untraced", pct)
}

// abaRatio is the median, over the stream positions all three phases
// completed, of traced ÷ the mean of the untraced before and after: the
// phases send the same stream, so each triple is the same query.
func abaRatio(before, traced, after map[int]float64) float64 {
	var rs []float64
	for id, b := range before {
		t, ok1 := traced[id]
		a, ok2 := after[id]
		if ok1 && ok2 && a+b > 0 {
			rs = append(rs, t/((a+b)/2))
		}
	}
	return median(rs)
}

// asIDs keys a list by position.
func asIDs(xs []float64) map[int]float64 {
	out := make(map[int]float64, len(xs))
	for i, x := range xs {
		out[i] = x
	}
	return out
}

// ladder runs the layer ladder and reports its metrics; a rung that does
// not reproduce the served answer fails the run.
func (r *report) ladder(items []ladderItem, passes int) {
	res, err := runLadder(items, passes)
	if err != nil {
		r.fail("%v", err)
		return
	}
	f := res.first
	perTx := func(d time.Duration, tx uint64) float64 {
		if tx == 0 {
			return 0
		}
		return float64(d) / float64(tx)
	}
	r.setLayer("mesif.host_ns_per_tx", perTx(res.rung[rungBare], f.tx), "ns")
	r.setLayer("mesif.dirty_ns_per_tx", perTx(res.rung[rungDirty]-res.rung[rungBare], f.tx), "ns")
	r.setLayer("invariant.ns_per_tx.sample16", perTx(res.checkerTime[16], res.checkerTx[16]), "ns")
	r.setLayer("invariant.ns_per_tx.sample1", perTx(res.checkerTime[1], res.checkerTx[1]), "ns")
	r.setLayer("invariant.epoch_check_ms", median(res.checkMs), "ms")
	r.setLayer("invariant.stale_findings", float64(res.stale), "count")
	r.setLayer("trace.ns_per_tx", perTx(res.rung[rungRecorder]-res.rung[rungCheck], f.tx), "ns")
	share := 0.0
	if res.envTotal > 0 {
		share = float64(res.envPlace) / float64(res.envTotal)
	}
	r.setLayer("placement.share", share, "ratio")
	r.setLayer("placement.tx", float64(f.placeTx), "count")
	r.setLayer("mesif.tx", float64(f.tx), "count")
	r.setLayer("mesif.snoops", float64(f.snoops), "count")
	r.setLayer("mesif.broadcasts", float64(f.bcasts), "count")
	r.setLayer("mesif.dir_hits", float64(f.dirHit), "count")
	ratio := 0.0
	if f.hitmeLooks > 0 {
		ratio = float64(f.hitmeHits) / float64(f.hitmeLooks)
	}
	r.setLayer("directory.hitme_hit_ratio", ratio, "ratio")
	r.setLayer("experiments.env_build_ms", median(res.buildMs), "ms")
	r.setLayer("experiments.rearm_ms", median(res.rearmMs), "ms")
	// The chaos layers read 0 unless whatif-cold's chaos probe, which
	// runs after the ladder, sets them.
	for name, unit := range chaosLayers {
		r.setLayer(name, 0, unit)
	}
	var names []string
	for _, it := range items {
		names = append(names, it.name())
	}
	r.note("ladder over %d item(s), %d pass(es): %s", len(items), passes, strings.Join(names, "; "))
	r.note("ladder rung times (ms): bare %.1f, +dirty %.1f, +env %.1f, +Check %.1f, +recorder %.1f; every rung reproduced the served answers bit for bit",
		ms(res.rung[0]), ms(res.rung[1]), ms(res.rung[2]), ms(res.rung[3]), ms(res.rung[4]))
}

func ms(d time.Duration) float64 { return float64(d) / 1e6 }

// servedDigest digests the served answers in memo-key order.
func servedDigest(served map[string][]byte) string {
	m := make(map[string]string, len(served))
	for k, v := range served {
		h, err := answerHash(v)
		if err != nil {
			h = "undecodable"
		}
		m[k] = h
	}
	return tableDigest(m)[:16]
}

// saveSpans writes the traced phase's spans next to the other run output.
func saveSpans(o opts, tr *tracer) error { return saveSpansAs(o, tr, "") }

// saveSpansAs writes spans under a name with a suffix.
func saveSpansAs(o opts, tr *tracer, suffix string) error {
	if err := os.MkdirAll(o.spanDir, 0o755); err != nil {
		return err
	}
	name := o.workload
	if suffix != "" {
		name += "-" + suffix
	}
	return tr.write(filepath.Join(o.spanDir, fmt.Sprintf("%s-seed%d.json", name, o.seed)))
}
