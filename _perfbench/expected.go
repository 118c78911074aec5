package main

import (
	"bytes"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"os"
	"strconv"

	"haswellep/internal/experiments"
	"haswellep/internal/fault"
	"haswellep/internal/machine"
)

// expected is the recorded answer table (expected.json): a digest of every
// answer any seed's queries can be served, keyed by label-free memo key,
// and of every chaos point's simulated fields. A speed-only change leaves
// every simulated number identical, so every served answer must match.
type expected struct {
	// WhatIf maps a label-free memo key to answerHash of its answer.
	WhatIf map[string]string `json:"whatif"`
	// Chaos maps chaosKey(seed, rate) to simHash of the point.
	Chaos map[string]string `json:"chaos"`
	// WhatIfDigest and ChaosDigest digest the two tables (tableDigest).
	WhatIfDigest string `json:"whatif_digest"`
	ChaosDigest  string `json:"chaos_digest"`
	// DefaultSeed documents what the default seed generates.
	DefaultSeed defaultSeedInfo `json:"default_seed"`
}

type defaultSeedInfo struct {
	Seed int64 `json:"seed"`
	// ColdFirst is the mix of the cold stream's first queries (about what
	// one run completes); WarmSet the warm key set; WarmRequests the mix
	// of query slots over the warm request pool.
	ColdFirst    mix       `json:"cold_first_120"`
	WarmSet      mix       `json:"warm_key_set"`
	WarmRequests mix       `json:"warm_request_slots"`
	ChaosSeed    int64     `json:"chaos_campaign_seed"`
	ChaosRates   []float64 `json:"chaos_rates"`
}

func loadExpected(path string) (*expected, error) {
	b, err := os.ReadFile(path)
	if err != nil {
		return nil, fmt.Errorf("reading the answer table: %w", err)
	}
	var e expected
	if err := json.Unmarshal(b, &e); err != nil {
		return nil, fmt.Errorf("decoding %s: %w", path, err)
	}
	if got := tableDigest(e.WhatIf); got != e.WhatIfDigest {
		return nil, fmt.Errorf("%s: what-if table digest %s, recorded %s", path, got, e.WhatIfDigest)
	}
	if got := tableDigest(e.Chaos); got != e.ChaosDigest {
		return nil, fmt.Errorf("%s: chaos table digest %s, recorded %s", path, got, e.ChaosDigest)
	}
	return &e, nil
}

// answerHash digests one served answer, ignoring insignificant JSON
// whitespace.
func answerHash(raw []byte) (string, error) {
	var buf bytes.Buffer
	if err := json.Compact(&buf, raw); err != nil {
		return "", err
	}
	sum := sha256.Sum256(buf.Bytes())
	return hex.EncodeToString(sum[:]), nil
}

// tableDigest digests a key → hash table in key order.
func tableDigest(m map[string]string) string {
	h := sha256.New()
	for _, k := range sortedKeys(m) {
		fmt.Fprintf(h, "%s\t%s\n", k, m[k])
	}
	return hex.EncodeToString(h.Sum(nil))
}

// chaosSim is the simulated part of a chaos point: everything the
// simulator computed, nothing the host timed.
type chaosSim struct {
	Rate           float64              `json:"rate"`
	Table4         [4][4]float64        `json:"table4"`
	Counters       fault.Counters       `json:"counters"`
	FaultEvents    int                  `json:"fault_events"`
	StaleFindings  int                  `json:"stale_findings"`
	Traffic        machine.TrafficStats `json:"traffic"`
	RemoteReadGBps float64              `json:"remote_read_gbps"`
}

func chaosKey(seed int64, rate float64) string {
	return "seed=" + strconv.FormatInt(seed, 10) + " rate=" + strconv.FormatFloat(rate, 'g', -1, 64)
}

func simHash(p experiments.ChaosPoint) (string, error) {
	b, err := json.Marshal(chaosSim{
		Rate: p.Rate, Table4: p.Table4.Values, Counters: p.Counters, FaultEvents: p.FaultEvents,
		StaleFindings: p.StaleFindings, Traffic: p.Traffic, RemoteReadGBps: p.RemoteReadGBps,
	})
	if err != nil {
		return "", err
	}
	return answerHash(b)
}
