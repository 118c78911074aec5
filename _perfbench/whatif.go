package main

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net"
	"net/http"
	"os"
	"path/filepath"
	"sort"
	"strconv"
	"sync"
	"sync/atomic"
	"time"

	"haswellep/internal/experiments"
	"haswellep/internal/farm"
	"haswellep/internal/server"
)

// runPointFunc is server.Config.RunPoint's type.
type runPointFunc = func(*farm.Ctx, experiments.WhatIfSpec, experiments.WhatIfOptions) (experiments.WhatIfAnswer, error)

// Headers the traced run uses to tie server spans to the client request
// and the query that caused them.
const (
	spanHeader = "X-Perfbench-Span"
	keyHeader  = "X-Perfbench-Key"
)

// clients is the closed-loop client count (one per CPU of the 2-CPU box).
const clients = 2

// harness is one in-process hswd: server.New(...).Handler() on a loopback
// listener, with hswd's defaults (2 shards, no bundle dir).
type harness struct {
	srv    *server.Server
	hs     *http.Server
	url    string
	client *http.Client
	done   chan struct{} // closed when Serve returns
}

// startServer builds a server on a fresh journal in dir. In the traced run
// tr wraps the handler and RunPoint in spans; nil leaves both as deployed.
func startServer(dir string, tr *tracer) (*harness, error) {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, err
	}
	cfg := server.Config{JournalPath: filepath.Join(dir, "memo.journal"), Shards: 2}
	if tr != nil {
		cfg.RunPoint = tr.wrapRunPoint(experiments.RunWhatIf)
	}
	srv, err := server.New(cfg)
	if err != nil {
		return nil, err
	}
	h := srv.Handler()
	if tr != nil {
		h = tr.wrapHandler(h)
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		_ = srv.Drain(context.Background())
		return nil, err
	}
	hr := &harness{
		srv: srv,
		hs:  &http.Server{Handler: h},
		url: "http://" + ln.Addr().String(),
		client: &http.Client{Transport: &http.Transport{
			MaxIdleConnsPerHost: clients * 2,
			DisableCompression:  true,
		}},
		done: make(chan struct{}),
	}
	go func() {
		defer close(hr.done)
		_ = hr.hs.Serve(ln)
	}()
	resp, err := hr.client.Get(hr.url + "/readyz")
	if err == nil {
		_, _ = io.Copy(io.Discard, resp.Body)
		resp.Body.Close()
		if resp.StatusCode != http.StatusOK {
			err = fmt.Errorf("readyz: %s", resp.Status)
		}
	}
	if err != nil {
		_ = hr.close()
		return nil, err
	}
	return hr, nil
}

// close stops the HTTP server, drains hswd (flushing the journal) and
// waits for the serving goroutine to exit.
func (h *harness) close() error {
	ctx, cancel := context.WithTimeout(context.Background(), time.Minute)
	defer cancel()
	err := h.hs.Shutdown(ctx)
	<-h.done
	if derr := h.srv.Drain(ctx); err == nil {
		err = derr
	}
	h.client.CloseIdleConnections()
	return err
}

// post sends one batch body and returns the status and the response body.
func (h *harness) post(body []byte, hdr map[string]string) (int, []byte, error) {
	req, err := http.NewRequest(http.MethodPost, h.url+"/v1/whatif", bytes.NewReader(body))
	if err != nil {
		return 0, nil, err
	}
	req.Header.Set("Content-Type", "application/json")
	for k, v := range hdr {
		req.Header.Set(k, v)
	}
	resp, err := h.client.Do(req)
	if err != nil {
		return 0, nil, err
	}
	defer resp.Body.Close()
	b, err := io.ReadAll(resp.Body)
	return resp.StatusCode, b, err
}

// statz reads hswd's counters.
func (h *harness) statz() (server.Statz, error) {
	var st server.Statz
	resp, err := h.client.Get(h.url + "/statz")
	if err != nil {
		return st, err
	}
	defer resp.Body.Close()
	err = json.NewDecoder(resp.Body).Decode(&st)
	return st, err
}

// counterDelta is the /statz counter movement over one phase.
type counterDelta struct {
	CacheHits, Executed, Coalesced, Shed, Degraded uint64
}

func delta(a, b server.Statz) counterDelta {
	return counterDelta{
		CacheHits: b.Counters.CacheHits - a.Counters.CacheHits,
		Executed:  b.Counters.Executed - a.Counters.Executed,
		Coalesced: b.Counters.Coalesced - a.Counters.Coalesced,
		Shed:      b.Counters.Shed - a.Counters.Shed,
		Degraded:  b.Counters.Degraded - a.Counters.Degraded,
	}
}

// encodeBatch is the request body of a batch.
func encodeBatch(qs []server.Query) []byte {
	b, err := json.Marshal(server.Request{Queries: qs})
	if err != nil {
		panic(err) // server.Query holds only plain fields
	}
	return b
}

// checkResults decodes a response and checks every result against the
// answer table: it must be served (not degraded), and its answer must be
// the recorded one. It returns the answers by memo key.
func checkResults(body []byte, qs []server.Query, exp *expected) (map[string][]byte, error) {
	var resp server.Response
	if err := json.Unmarshal(body, &resp); err != nil {
		return nil, fmt.Errorf("decoding response: %w", err)
	}
	if len(resp.Results) != len(qs) {
		return nil, fmt.Errorf("%d results for %d queries", len(resp.Results), len(qs))
	}
	out := make(map[string][]byte, len(qs))
	for i, r := range resp.Results {
		if r.Degraded != nil {
			return nil, fmt.Errorf("%s: degraded (%s): %s", r.Key, r.Degraded.Kind, r.Degraded.Error)
		}
		q := qs[i]
		key, err := keyOf(q)
		if err != nil {
			return nil, err
		}
		if r.Key != key {
			return nil, fmt.Errorf("result %d is for %q, sent %q", i, r.Key, key)
		}
		q.Label = ""
		bare, _ := keyOf(q)
		want, ok := exp.WhatIf[bare]
		if !ok {
			return nil, fmt.Errorf("%s: no recorded answer", bare)
		}
		got, err := answerHash(r.Answer)
		if err != nil {
			return nil, fmt.Errorf("%s: %w", key, err)
		}
		if got != want {
			return nil, fmt.Errorf("%s: answer digest %s, recorded %s", key, got, want)
		}
		out[key] = r.Answer
	}
	return out, nil
}

// sample is one completed request: how long it took, in ms, and which
// stream position it was (-1 when requests have no position). It is 8
// bytes, so a phase's own record stays small beside the resident set it
// measures, however many requests a faster program completes.
type sample struct {
	ms float32
	id int32
}

// loopResult is one closed-loop phase.
type loopResult struct {
	samples   []sample // completion order
	answered  int      // queries answered correctly
	rate      float64  // sum over clients of queries / client's own busy time
	attempted int
	failed    int
	wall      time.Duration
}

func (l loopResult) latencies() []float64 {
	out := make([]float64, len(l.samples))
	for i, s := range l.samples {
		out[i] = float64(s.ms)
	}
	return out
}

// streamLatencies is latencies in stream-position order.
func (l loopResult) streamLatencies() []float64 {
	s := append([]sample(nil), l.samples...)
	sort.SliceStable(s, func(i, j int) bool { return s[i].id < s[j].id })
	return loopResult{samples: s}.latencies()
}

// byID maps stream position to latency, for requests that have one.
func (l loopResult) byID() map[int]float64 {
	out := map[int]float64{}
	for _, s := range l.samples {
		if s.id >= 0 {
			out[int(s.id)] = float64(s.ms)
		}
	}
	return out
}

func (l loopResult) queries() int { return l.answered }

// closedLoop runs `clients` loops for d: each sends its next request only
// after the previous one completed. do performs client c's i-th request
// and reports the queries it carried, the request's stream position, and
// whether they were all answered correctly. n > 0 caps each client at n
// requests. A client's rate is over its own busy time, so a long last
// request of one client does not idle the other's share.
func closedLoop(d time.Duration, n int, do func(c, i int) (queries, id int, ok bool)) loopResult {
	t0 := time.Now()
	var mu sync.Mutex
	var samples []sample // appended under mu, so in completion order
	rates := make([]float64, clients)
	answered := make([]int, clients)
	attempted := make([]int, clients)
	failed := make([]int, clients)
	var wg sync.WaitGroup
	for c := 0; c < clients; c++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			start := time.Now()
			for i := 0; (n <= 0 || i < n) && time.Since(t0) < d; i++ {
				s := time.Now()
				q, id, ok := do(c, i)
				ms := float32(time.Since(s).Seconds() * 1e3)
				attempted[c] += q
				if !ok {
					failed[c] += q
					continue
				}
				answered[c] += q
				mu.Lock()
				samples = append(samples, sample{ms: ms, id: int32(id)})
				mu.Unlock()
			}
			rates[c] = float64(answered[c]) / time.Since(start).Seconds()
		}(c)
	}
	wg.Wait()
	res := loopResult{samples: samples, wall: time.Since(t0)}
	for c := 0; c < clients; c++ {
		res.rate += rates[c]
		res.answered += answered[c]
		res.attempted += attempted[c]
		res.failed += failed[c]
	}
	return res
}

// failLog prints the first few failures to standard error.
type failLog struct{ n atomic.Int64 }

func (f *failLog) add(format string, a ...any) {
	if f.n.Add(1) <= 5 {
		fmt.Fprintf(os.Stderr, "perfbench: "+format+"\n", a...)
	}
}

// coldPhase drives the whatif-cold stream from its start against h for d.
// It returns the phase, the answers served by memo key, and the stream
// indices completed, in stream order.
func coldPhase(h *harness, gen *coldGen, exp *expected, tr *tracer, d time.Duration, fl *failLog) (loopResult, map[string][]byte, []int) {
	var next atomic.Int64
	var mu sync.Mutex
	served := map[string][]byte{}
	var done []int
	res := closedLoop(d, 0, func(c, _ int) (int, int, bool) {
		idx := int(next.Add(1) - 1)
		q := gen.query(idx)
		qs := []server.Query{q}
		key, _ := keyOf(q)
		hdr := map[string]string{}
		var id int64
		var start time.Duration
		if tr != nil {
			id, start = tr.newID(), tr.now()
			hdr[spanHeader] = strconv.FormatInt(id, 10)
			hdr[keyHeader] = key
		}
		status, body, err := h.post(encodeBatch(qs), hdr)
		if tr != nil {
			tr.record(span{ID: id, Name: "client.request", Key: key, Start: start, End: tr.now()})
		}
		if err == nil && status != http.StatusOK {
			err = fmt.Errorf("status %d: %s", status, bytes.TrimSpace(body))
		}
		var ans map[string][]byte
		if err == nil {
			ans, err = checkResults(body, qs, exp)
		}
		if err != nil {
			fl.add("cold query %d: %v", idx, err)
			return 1, idx, false
		}
		mu.Lock()
		for k, v := range ans {
			served[k] = v
		}
		done = append(done, idx)
		mu.Unlock()
		return 1, idx, true
	})
	sort.Ints(done)
	return res, served, done
}

// warmState is a populated warm server and its request pool.
type warmState struct {
	h       *harness
	answers map[string][]byte // by memo key
	bodies  [][]byte          // request pool
	want    [][]byte          // the exact response each request must get
	batches [][]server.Query
}

// setupWarm starts a server on a fresh journal, executes the warm key set
// through it (checking every answer), and prepares the request pool with
// the exact response bytes each request must receive.
func setupWarm(dir string, seed int64, exp *expected, tr *tracer) (*warmState, error) {
	h, err := startServer(dir, tr)
	if err != nil {
		return nil, err
	}
	set := warmSet(seed)
	ws := &warmState{h: h, answers: map[string][]byte{}}
	for lo := 0; lo < len(set); lo += warmBatch {
		qs := set[lo:min(lo+warmBatch, len(set))]
		status, body, err := h.post(encodeBatch(qs), nil)
		if err == nil && status != http.StatusOK {
			err = fmt.Errorf("status %d: %s", status, bytes.TrimSpace(body))
		}
		var ans map[string][]byte
		if err == nil {
			ans, err = checkResults(body, qs, exp)
		}
		if err != nil {
			_ = h.close()
			return nil, fmt.Errorf("populating the warm key set: %w", err)
		}
		for k, v := range ans {
			ws.answers[k] = v
		}
	}
	for _, idx := range warmBatchIndices(seed) {
		qs := make([]server.Query, len(idx))
		res := server.Response{Results: make([]server.QueryResult, len(idx))}
		for i, j := range idx {
			qs[i] = set[j]
			k, _ := keyOf(set[j])
			res.Results[i] = server.QueryResult{Key: k, Answer: ws.answers[k]}
		}
		var buf bytes.Buffer
		if err := json.NewEncoder(&buf).Encode(res); err != nil {
			_ = h.close()
			return nil, err
		}
		ws.batches = append(ws.batches, qs)
		ws.bodies = append(ws.bodies, encodeBatch(qs))
		ws.want = append(ws.want, buf.Bytes())
	}
	return ws, nil
}

// warmPhase sends the request pool round-robin for d (or for n requests
// per client when n > 0). A response must equal the expected bytes; one
// that differs is decoded and passes only if every answer is the recorded
// one and none is degraded.
func warmPhase(ws *warmState, exp *expected, tr *tracer, d time.Duration, n int, fl *failLog) loopResult {
	if n > 0 {
		d = time.Hour
	}
	return closedLoop(d, n, func(c, i int) (int, int, bool) {
		b := (c + clients*i) % len(ws.bodies)
		var hdr map[string]string
		var id int64
		var start time.Duration
		if tr != nil {
			id, start = tr.newID(), tr.now()
			hdr = map[string]string{spanHeader: strconv.FormatInt(id, 10)}
		}
		status, body, err := ws.h.post(ws.bodies[b], hdr)
		if tr != nil {
			tr.record(span{ID: id, Name: "client.request", Start: start, End: tr.now()})
		}
		q := len(ws.batches[b])
		if err == nil && status != http.StatusOK {
			err = fmt.Errorf("status %d: %s", status, bytes.TrimSpace(body))
		}
		if err == nil && !bytes.Equal(body, ws.want[b]) {
			_, err = checkResults(body, ws.batches[b], exp)
		}
		if err != nil {
			fl.add("warm request %d: %v", b, err)
			return q, -1, false
		}
		return q, -1, true
	})
}

// wrapHandler records a server.handler span around every request, child
// of the client span named in the request header, and binds the query's
// memo key to it so the RunPoint span can find its parent.
func (t *tracer) wrapHandler(h http.Handler) http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if r.URL.Path != "/v1/whatif" {
			h.ServeHTTP(w, r)
			return
		}
		id, start := t.newID(), t.now()
		parent, _ := strconv.ParseInt(r.Header.Get(spanHeader), 10, 64)
		key := r.Header.Get(keyHeader)
		if key != "" {
			t.parentOf.Store(key, id)
		}
		h.ServeHTTP(w, r)
		t.record(span{ID: id, Parent: parent, Name: "server.handler", Key: key, Start: start, End: t.now()})
	})
}

// wrapRunPoint records an experiments.RunWhatIf span around every point
// the farm executes, child of the handler span that admitted its key.
func (t *tracer) wrapRunPoint(run runPointFunc) runPointFunc {
	return func(fc *farm.Ctx, s experiments.WhatIfSpec, o experiments.WhatIfOptions) (experiments.WhatIfAnswer, error) {
		key := s.Key()
		var parent int64
		if v, ok := t.parentOf.Load(key); ok {
			parent = v.(int64)
		}
		start := t.now()
		ans, err := run(fc, s, o)
		t.record(span{ID: t.newID(), Parent: parent, Name: "experiments.RunWhatIf/" + string(s.Kind), Key: key, Start: start, End: t.now()})
		return ans, err
	}
}

// decodeAnswer parses a served answer.
func decodeAnswer(raw []byte) (experiments.WhatIfAnswer, error) {
	var a experiments.WhatIfAnswer
	err := json.Unmarshal(raw, &a)
	if err == nil && a.Latency == nil && a.Bandwidth == nil && a.Placement == nil && a.Chaos == nil {
		err = errors.New("answer has no payload")
	}
	return a, err
}
