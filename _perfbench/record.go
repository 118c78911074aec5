package main

import (
	"encoding/json"
	"fmt"
	"io"
	"os"
	"sync"
	"time"

	"haswellep/internal/coherence"
	"haswellep/internal/experiments"
	"haswellep/internal/server"
)

// defaultSeed is the seed run.py uses when none is given; expected.json
// documents what it generates.
const defaultSeed = 1

// recordTable computes the answer of every what-if query in the universe
// and every chaos point any seed can run, directly through the public
// entry points the server and hswchaos call, and writes expected.json.
func recordTable(path string, log io.Writer) error {
	exp := expected{WhatIf: map[string]string{}, Chaos: map[string]string{}}
	var all []server.Query
	for _, class := range universe() {
		all = append(all, class...)
	}
	t0 := time.Now()
	jobs := make(chan server.Query)
	var mu sync.Mutex
	var firstErr error
	var wg sync.WaitGroup
	for w := 0; w < clients; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for q := range jobs {
				k, h, err := recordOne(q)
				mu.Lock()
				if err != nil && firstErr == nil {
					firstErr = err
				}
				exp.WhatIf[k] = h
				n := len(exp.WhatIf)
				mu.Unlock()
				if n%50 == 0 {
					fmt.Fprintf(log, "recorded %d/%d what-if answers (%.0fs)\n", n, len(all), time.Since(t0).Seconds())
				}
			}
		}()
	}
	for _, q := range all {
		jobs <- q
	}
	close(jobs)
	wg.Wait()
	if firstErr != nil {
		return firstErr
	}
	for _, seed := range chaosSeeds {
		res, err := experiments.ChaosSweepOpts(seed, chaosRates, experiments.ChaosOptions{Shards: clients, Protocol: coherence.MESIF})
		if err != nil {
			return fmt.Errorf("chaos seed %d: %w", seed, err)
		}
		for _, p := range res.Points {
			h, err := simHash(p)
			if err != nil {
				return err
			}
			exp.Chaos[chaosKey(seed, p.Rate)] = h
		}
		fmt.Fprintf(log, "recorded chaos seed %d (%.0fs)\n", seed, time.Since(t0).Seconds())
	}
	exp.WhatIfDigest = tableDigest(exp.WhatIf)
	exp.ChaosDigest = tableDigest(exp.Chaos)
	exp.DefaultSeed = describeSeed(defaultSeed)
	b, err := json.MarshalIndent(exp, "", " ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(b, '\n'), 0o644)
}

func recordOne(q server.Query) (key, hash string, err error) {
	spec, err := q.Spec()
	if err != nil {
		return "", "", err
	}
	ans, err := experiments.RunWhatIf(nil, spec, experiments.WhatIfOptions{})
	if err != nil {
		return "", "", fmt.Errorf("%s: %w", spec.Key(), err)
	}
	raw, err := json.Marshal(ans)
	if err != nil {
		return "", "", err
	}
	hash, err = answerHash(raw)
	return spec.Key(), hash, err
}

// describeSeed summarizes what a seed generates for each workload.
func describeSeed(seed int64) defaultSeedInfo {
	g := newColdGen(seed)
	cold := make([]server.Query, 120)
	for i := range cold {
		cold[i] = g.query(i)
	}
	set := warmSet(seed)
	var slots []server.Query
	for _, b := range warmBatchIndices(seed) {
		for _, i := range b {
			slots = append(slots, set[i])
		}
	}
	info := defaultSeedInfo{
		Seed: seed, ColdFirst: summarize(cold), WarmSet: summarize(set), WarmRequests: summarize(slots),
		ChaosSeed: chaosCampaignSeed(seed), ChaosRates: chaosRates,
	}
	// A warm request's slots all hit, so nothing is placed.
	info.WarmRequests.RecipeReuse = 0
	return info
}
