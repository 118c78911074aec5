package main

import (
	"fmt"
	"math"
	"sort"
	"strconv"
	"strings"
	"sync"
	"time"

	"haswellep/internal/experiments"
)

// chaosShards is the campaign's farm worker count, hswd's default.
const chaosShards = 2

// campaign is one measured chaos sweep.
type campaign struct {
	seed   int64
	result experiments.ChaosResult
	wall   time.Duration
	// busy is each point's execution time, by point index.
	busy []time.Duration
}

// chaosLayers are the per-layer metrics only the chaos probe measures,
// with their units.
var chaosLayers = map[string]string{
	"fault.injected":            "count",
	"fault.retries":             "count",
	"paper_dev_max_pct":         "%",
	"chaos.points_per_s":        "1/s",
	"chaos.parallel_efficiency": "ratio",
}

// chaosProbe runs one seeded chaos campaign as hswchaos -shards 2 runs it
// (rates including 0, pooled engines), checks every point against the
// answer table, and reports the layers the campaign uses differently from
// a what-if query: the sample-1 checker and the end-of-point
// invariant.Check under fault injection, and Env.Rearm pooling. A campaign
// is four points of 7-15 s, too few in one run for a steady end-to-end
// figure, so it runs in whatif-cold's traced run rather than as a
// workload of its own.
func (r *report) chaosProbe(o opts, fl *failLog) {
	tr := newTracer()
	c, err := runCampaign(chaosCampaignSeed(o.seed), tr)
	failed := 0
	if err != nil {
		fl.add("chaos campaign seed %d: %v", c.seed, err)
		failed = len(chaosRates)
	} else {
		for _, p := range c.result.Points {
			want, ok := o.exp.Chaos[chaosKey(c.seed, p.Rate)]
			got, herr := simHash(p)
			if herr != nil || !ok || got != want {
				fl.add("chaos point %s: digest %s, recorded %q (%v)", chaosKey(c.seed, p.Rate), got, want, herr)
				failed++
			}
		}
	}
	r.addPhase(len(chaosRates), failed)
	if failed > 0 {
		r.fail("chaos probe: %d of %d points failed", failed, len(chaosRates))
		return
	}
	var injected, retries uint64
	var busy time.Duration
	var pts []string
	var lat []float64
	for i, p := range c.result.Points {
		for _, n := range p.Counters.Injected {
			injected += n
		}
		retries += p.Counters.Retries
		busy += c.busy[i]
		lat = append(lat, ms(c.busy[i]))
		pts = append(pts, fmt.Sprintf("%.2f", c.busy[i].Seconds()))
	}
	dev := paperDevMaxPct(c.result)
	r.setLayer("fault.injected", float64(injected), "count")
	r.setLayer("fault.retries", float64(retries), "count")
	r.setLayer("paper_dev_max_pct", dev, "%")
	r.setLayer("chaos.points_per_s", float64(len(c.result.Points))/c.wall.Seconds(), "1/s")
	r.setLayer("chaos.parallel_efficiency", busy.Seconds()/(chaosShards*c.wall.Seconds()), "ratio")
	r.setLayer("experiments.runwhatif_ms_p50.chaos", median(lat), "ms")
	r.note("chaos probe: plan seed %d, rates %v, %.1f s, points %s s; paper_dev_max_pct %g (rate-0 Table IV vs the paper, simulated time)",
		c.seed, chaosRates, c.wall.Seconds(), strings.Join(pts, " "), dev)
	if err := saveSpansAs(o, tr, "chaos"); err != nil {
		r.fail("chaos probe spans: %v", err)
	}

	// The ladder replays the most faulted point, whose env runs the
	// sample-1 checker.
	p := c.result.Points[len(c.result.Points)-1]
	it := ladderItem{chaos: true, seed: c.seed, rate: p.Rate, servedRow: p.Table4.Values[0], recordsDir: o.dir}
	res, err := runLadder([]ladderItem{it}, 2)
	if err != nil {
		r.fail("%v", err)
		return
	}
	ns := 0.0
	if tx := res.checkerTx[1]; tx > 0 {
		ns = float64(res.checkerTime[1]) / float64(tx)
	}
	r.setLayer("invariant.ns_per_tx.sample1", ns, "ns")
	r.note("chaos ladder over %s, 2 passes: rung times (ms) bare %.1f, +dirty %.1f, +env %.1f, +Check %.1f, +recorder %.1f; every rung reproduced the served cells bit for bit",
		it.name(), ms(res.rung[0]), ms(res.rung[1]), ms(res.rung[2]), ms(res.rung[3]), ms(res.rung[4]))
}

// runCampaign runs one traced sweep and reconstructs each point's
// execution time from the farm's completion callbacks: the farm hands
// points out in index order to whichever worker is free, so point
// j < chaosShards starts with the campaign and point chaosShards+k starts
// when the k-th completion frees its worker.
func runCampaign(seed int64, tr *tracer) (campaign, error) {
	cp := campaign{seed: seed}
	var mu sync.Mutex
	doneAt := make([]time.Duration, len(chaosRates))
	var order []time.Duration
	id, tstart := tr.newID(), tr.now()
	t0 := time.Now()
	res, err := experiments.ChaosSweepOpts(seed, chaosRates, experiments.ChaosOptions{
		Shards: chaosShards,
		OnPointDone: func(key string, _ bool) {
			at := time.Since(t0)
			i, perr := strconv.Atoi(strings.SplitN(key, ":", 2)[0])
			mu.Lock()
			defer mu.Unlock()
			if perr == nil && i >= 0 && i < len(doneAt) {
				doneAt[i] = at
			}
			order = append(order, at)
		},
	})
	cp.wall = time.Since(t0)
	cp.result = res
	if err != nil {
		return cp, err
	}
	sort.Slice(order, func(i, j int) bool { return order[i] < order[j] })
	cp.busy = make([]time.Duration, len(chaosRates))
	for j := range chaosRates {
		var start time.Duration
		if j >= chaosShards && j-chaosShards < len(order) {
			start = order[j-chaosShards]
		}
		cp.busy[j] = doneAt[j] - start
	}
	tr.record(span{ID: id, Name: "experiments.ChaosSweepOpts", Start: tstart, End: tr.now(), Key: "seed=" + strconv.FormatInt(seed, 10)})
	for j, b := range cp.busy {
		end := tstart + doneAt[j]
		tr.record(span{ID: tr.newID(), Parent: id, Name: "experiments.RunWhatIf/chaos", Key: chaosKey(seed, chaosRates[j]), Start: end - b, End: end})
	}
	return cp, nil
}

// paperDevMaxPct is the worst |deviation| of the rate-0 point's Table IV
// from the paper.
func paperDevMaxPct(res experiments.ChaosResult) float64 {
	worst := 0.0
	for _, p := range res.Points {
		if p.Rate != 0 {
			continue
		}
		for _, cmp := range p.Table4.Comparisons {
			worst = math.Max(worst, math.Abs(cmp.DeviationPct()))
		}
	}
	return worst
}
