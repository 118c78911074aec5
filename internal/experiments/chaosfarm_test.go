package experiments

import (
	"context"
	"errors"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"sync"
	"testing"

	"haswellep/internal/farm"
	"haswellep/internal/replay"
	"haswellep/internal/trace"
)

// quickOpts is the cheap sweep configuration shared by the farm tests: no
// Table V (the expensive matrix), two rates.
var quickRates = []float64{0, 0.02}

// serialRef is the seed-11 serial campaign over quickRates, the reference
// the farm differentials compare their variants (sharded, resumed,
// pooled) against. It is computed once per test binary (serialReference).
var serialRef struct {
	once sync.Once
	res  ChaosResult
	err  error
}

// serialReference returns the shared seed-11 serial reference campaign.
func serialReference(t *testing.T) ChaosResult {
	t.Helper()
	serialRef.once.Do(func() {
		serialRef.res, serialRef.err = ChaosSweepOpts(11, quickRates, ChaosOptions{})
	})
	if serialRef.err != nil {
		t.Fatal(serialRef.err)
	}
	return serialRef.res
}

// TestChaosFarmShardEquivalence is the tentpole's differential proof: the
// sweep at shards=1, shards=3, and through the plain serial entry point is
// byte-for-byte identical — points, table, everything.
func TestChaosFarmShardEquivalence(t *testing.T) {
	if testing.Short() {
		t.Skip("multi-run chaos differential in -short mode")
	}
	serial := serialReference(t)
	for _, shards := range []int{1, 3} {
		got, err := ChaosSweepOpts(11, quickRates, ChaosOptions{Shards: shards})
		if err != nil {
			t.Fatalf("shards=%d: %v", shards, err)
		}
		if got.Table.String() != serial.Table.String() {
			t.Errorf("shards=%d table differs from serial:\n%s\nvs\n%s",
				shards, got.Table.String(), serial.Table.String())
		}
		if !reflect.DeepEqual(got.Points, serial.Points) {
			t.Errorf("shards=%d points differ from serial", shards)
		}
	}
}

// TestChaosFarmCheckpointResume interrupts a checkpointed campaign after
// its first completed point, resumes it, and demands the resumed result be
// identical to an uninterrupted run — including the floats, which round-trip
// exactly through the JSON journal.
func TestChaosFarmCheckpointResume(t *testing.T) {
	if testing.Short() {
		t.Skip("multi-run chaos differential in -short mode")
	}
	reference := serialReference(t)

	ckpt := filepath.Join(t.TempDir(), "chaos.journal")
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	done := 0
	_, err := ChaosSweepCtx(ctx, 11, quickRates, ChaosOptions{
		Shards:         1,
		CheckpointPath: ckpt,
		OnPointDone: func(string, bool) {
			if done++; done == 1 {
				cancel()
			}
		},
	})
	if err == nil || !errors.Is(err, context.Canceled) {
		t.Fatalf("interrupted run: err = %v, want context.Canceled", err)
	}

	resumed, err := ChaosSweepOpts(11, quickRates, ChaosOptions{Shards: 2, CheckpointPath: ckpt})
	if err != nil {
		t.Fatal(err)
	}
	if resumed.Farm.FromCheckpoint == 0 {
		t.Error("resume did not restore any point from the checkpoint")
	}
	if resumed.Table.String() != reference.Table.String() {
		t.Errorf("resumed table differs from uninterrupted run:\n%s\nvs\n%s",
			resumed.Table.String(), reference.Table.String())
	}
	if !reflect.DeepEqual(resumed.Points, reference.Points) {
		t.Error("resumed points differ from uninterrupted run")
	}

	// A journal keyed to a different campaign must be refused, not mixed in.
	if _, err := ChaosSweepOpts(12, quickRates, ChaosOptions{CheckpointPath: ckpt}); !errors.Is(err, farm.ErrCampaignMismatch) {
		t.Errorf("campaign mismatch not detected: %v", err)
	}
}

// TestChaosFarmPanicIsolated injects a panic into one point of a tolerant
// sharded sweep: the campaign must complete, the point must degrade with a
// replayable repro bundle, and the other point's numbers must match an
// undisturbed run.
func TestChaosFarmPanicIsolated(t *testing.T) {
	if testing.Short() {
		t.Skip("chaos point in -short mode")
	}
	dir := t.TempDir()
	res, err := ChaosSweepOpts(11, quickRates, ChaosOptions{
		Shards:      2,
		Tolerate:    true,
		BundleDir:   dir,
		InjectPanic: []int{1},
	})
	if err != nil {
		t.Fatalf("tolerant sweep must survive a point panic: %v", err)
	}
	if len(res.Points) != 1 || res.Points[0].Rate != 0 {
		t.Fatalf("surviving points: %+v", res.Points)
	}
	if len(res.Degraded) != 1 {
		t.Fatalf("degraded: %+v", res.Degraded)
	}
	f := res.Degraded[0]
	if f.Kind != farm.KindPanic || !strings.Contains(f.Panic, "injected chaos-point panic") {
		t.Errorf("failure: %+v", f)
	}
	if f.BundlePath == "" {
		t.Fatalf("panic produced no repro bundle: %+v", f)
	}
	if _, err := os.Stat(f.BundlePath); err != nil {
		t.Fatal(err)
	}
	b, err := trace.ReadFile(f.BundlePath)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := replay.Verify(b); err != nil {
		t.Errorf("panic bundle does not verify: %v", err)
	}
	if !strings.Contains(res.Table.String(), "degraded") {
		t.Errorf("table lacks a degraded row:\n%s", res.Table.String())
	}
	if res.Farm.Degraded != 1 || res.Farm.Completed != 1 {
		t.Errorf("farm stats: %+v", res.Farm)
	}
}

// TestChaosFarmNonTolerantAborts: without Tolerate, a degraded point
// aborts the sweep with the historical per-rate error shape.
func TestChaosFarmNonTolerantAborts(t *testing.T) {
	if testing.Short() {
		t.Skip("chaos point in -short mode")
	}
	_, err := ChaosSweepOpts(11, []float64{0}, ChaosOptions{InjectPanic: []int{0}})
	if err == nil || !strings.Contains(err.Error(), "chaos sweep rate 0") {
		t.Fatalf("err = %v", err)
	}
	var pf *farm.PointFailure
	if !errors.As(err, &pf) || pf.Kind != farm.KindPanic {
		t.Fatalf("failure not unwrappable: %v", err)
	}
}

// TestChaosCampaignKey: everything that changes measured numbers must land
// in the campaign identity.
func TestChaosCampaignKey(t *testing.T) {
	base := chaosCampaignKey(1, []float64{0, 0.02}, ChaosOptions{IncludeT5: true})
	for name, other := range map[string]string{
		"seed":  chaosCampaignKey(2, []float64{0, 0.02}, ChaosOptions{IncludeT5: true}),
		"rates": chaosCampaignKey(1, []float64{0, 0.05}, ChaosOptions{IncludeT5: true}),
		"t5":    chaosCampaignKey(1, []float64{0, 0.02}, ChaosOptions{}),
	} {
		if other == base {
			t.Errorf("campaign key ignores %s", name)
		}
	}
	// Shard count and deadlines must NOT change the identity: they change
	// scheduling, not results.
	same := chaosCampaignKey(1, []float64{0, 0.02}, ChaosOptions{IncludeT5: true, Shards: 8, Retries: 3})
	if same != base {
		t.Error("campaign key depends on scheduling knobs")
	}
}

// TestFarmReplaysCommittedCorpus fans the committed fuzz-corpus repro
// bundles out across the farm and demands every one still reproduces its
// finding byte-identically — the fuzz rigs' regression corpus, campaigned
// through the same pool as everything else. (The native fuzz *targets*
// stay under `go test -fuzz`, whose engine already parallelizes workers;
// the engine-tier invariant package cannot import the harness-tier farm.)
func TestFarmReplaysCommittedCorpus(t *testing.T) {
	bundles, err := filepath.Glob(filepath.Join("..", "invariant", "testdata", "*.json"))
	if err != nil || len(bundles) == 0 {
		t.Fatalf("no committed corpus bundles: %v (err %v)", bundles, err)
	}
	results, err := farm.Run(context.Background(), farm.Options{Shards: 2}, bundles,
		func(_ int, path string) string { return filepath.Base(path) },
		func(_ *farm.Ctx, path string) (string, error) {
			b, err := trace.ReadFile(path)
			if err != nil {
				return "", err
			}
			if _, err := replay.Verify(b); err != nil {
				return "", err
			}
			return "ok", nil
		})
	if err != nil {
		t.Fatalf("farm.Run: %v", err)
	}
	for _, r := range results {
		if !r.OK() {
			t.Errorf("corpus bundle %s no longer replays: %v", r.Key, r.Failure)
		}
	}
}

// TestChaosPooledEnvMatchesFresh: farm-driven points reuse the worker's
// pooled machine (chaosPointRun rearms it via Env.Rearm); a point measured
// on a rearmed machine must be byte-identical to the same point measured
// on a freshly built one. The serial chaosPointRun path (no farm context)
// always builds fresh, so it is the reference.
func TestChaosPooledEnvMatchesFresh(t *testing.T) {
	if testing.Short() {
		t.Skip("multi-run chaos differential in -short mode")
	}
	// The serial reference runs on one worker (Shards below 1 means 1), so
	// both rates go through it: the second point runs on the first
	// point's rearmed machine.
	pooled := serialReference(t)
	if got := len(pooled.Points); got != len(quickRates) {
		t.Fatalf("sweep completed %d points, want %d", got, len(quickRates))
	}
	for i, rate := range quickRates {
		rec, err := chaosPointRun(11, rate, ChaosOptions{}, nil, false)
		if err != nil {
			t.Fatalf("fresh point rate=%g: %v", rate, err)
		}
		if fresh := rec.Point(false); !reflect.DeepEqual(fresh, pooled.Points[i]) {
			t.Errorf("rate %g: pooled point differs from fresh build:\npooled: %+v\nfresh:  %+v",
				rate, pooled.Points[i], fresh)
		}
	}
}
