package main

import (
	"bytes"
	"encoding/json"
	"strings"
	"testing"
)

// TestWarmRunSmoke runs the whatif-warm workload for one second and checks the result line's contract: the last line is a JSON
// object, the run is correct, and every end-to-end metric is present.
func TestWarmRunSmoke(t *testing.T) {
	var out, errb bytes.Buffer
	code := run([]string{"-workload", "whatif-warm", "-seed", "2", "-seconds", "1",
		"-expected", "expected.json", "-workdir", t.TempDir()}, &out, &errb)
	if code != 0 {
		t.Fatalf("exit %d: %s", code, errb.String())
	}
	lines := strings.Split(strings.TrimSpace(out.String()), "\n")
	var res result
	if err := json.Unmarshal([]byte(lines[len(lines)-1]), &res); err != nil {
		t.Fatalf("last line is not the result: %v\n%s", err, out.String())
	}
	if !res.Correct || res.Failed != 0 || res.Attempted < 1 {
		t.Fatalf("result %+v\n%s", res, errb.String())
	}
	for _, name := range []string{"queries_per_s", "latency_p50_ms", "latency_tail_ms", "setup_s", "max_rss_mib"} {
		if m, ok := res.Metrics[name]; !ok || m.Value <= 0 || m.Unit == "" {
			t.Errorf("metric %s: %+v", name, m)
		}
	}
}

// TestWrongWarmAnswerIsIncorrect stands in for a server whose journal hits
// serve a wrong answer: the measured phase gets a response that differs
// from the set-up's bytes and from the recorded digests. The server still
// counts every slot a cache hit and executes nothing, so only the failed
// count can catch it, and it must make the result incorrect.
func TestWrongWarmAnswerIsIncorrect(t *testing.T) {
	exp, err := loadExpected("expected.json")
	if err != nil {
		t.Fatal(err)
	}
	ws, err := setupWarm(t.TempDir(), 2, exp, nil)
	if err != nil {
		t.Fatal(err)
	}
	defer ws.h.close()
	tampered := *exp
	tampered.WhatIf = map[string]string{}
	for k := range exp.WhatIf {
		tampered.WhatIf[k] = "tampered"
	}
	ws.want[0] = nil
	res := warmPhase(ws, &tampered, nil, 0, 1, &failLog{})
	if want := len(ws.batches[0]); res.failed != want {
		t.Fatalf("failed %d query slots, want %d (batch 0)", res.failed, want)
	}
	rep := newReport()
	rep.addPhase(res.attempted, res.failed)
	if got := rep.result(false); got.Correct || got.Failed != res.failed {
		t.Fatalf("result %+v, want incorrect with %d failed", got, res.failed)
	}
}

func TestRunRejectsBadArguments(t *testing.T) {
	var out, errb bytes.Buffer
	if code := run([]string{"-workload", "nope"}, &out, &errb); code == 0 {
		t.Fatal("unknown workload accepted")
	}
	if out.Len() != 0 {
		t.Fatalf("printed a result: %s", out.String())
	}
}
