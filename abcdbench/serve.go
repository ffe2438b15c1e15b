package main

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"io/fs"
	"math"
	"math/rand/v2"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"graphabcd/internal/graph"
	"graphabcd/internal/serve"
)

// serveAlgos is the rotation of cold submits and point queries.
var serveAlgos = []string{"pagerank", "sssp", "bfs", "cc", "ppr"}

// Request kinds of the serve-mix open loop.
const (
	kindCold   = iota // fresh params: submit, wait for the end of its event stream, fetch values
	kindHit           // resubmit of a finished job's params: answered from cache
	kindValues        // GET /v1/jobs/{id}?values=true of a finished job
	kindQuery         // GET /v1/query point read of a cached result
)

// serveMix is the fixed request pattern, a quarter of each kind.
var serveMix = []int{kindCold, kindHit, kindValues, kindQuery, kindCold, kindValues, kindHit, kindQuery}

// clientConns is the load generator's connection (and worker) count.
const clientConns = 2

// queryKeys is how many sources (and seed sets) point queries use. Each
// (algorithm, source) key is warmed once before timing, so queries read
// cached results; cold jobs draw from all numSources.
const queryKeys = 16

// poolPerAlgo is how many finished cold jobs per algorithm the warm-up
// leaves for hits and value reads to pick from. The pool is fixed before
// timing and every pick is drawn when the plan is made, so which requests
// meet the SSSP defect below, and so the failed count, depends on the
// seed alone, not on which job happened to finish first. The pool is
// small enough that each of its keys is hit every few dozen requests and
// never leaves the server's 256-entry LRU result cache.
const poolPerAlgo = 2

// emptyBody names the known serving defect: an SSSP result with an
// unreachable vertex holds +Inf, which encoding/json refuses, and the
// server's writeJSON drops the Encode error after the 200 header went out.
const emptyBody = "200 with empty body (+Inf not encodable; writeJSON drops the Encode error)"

// jobReq mirrors serve.JobRequest's wire form.
type jobReq struct {
	Algorithm string   `json:"algorithm"`
	Graph     string   `json:"graph"`
	Source    *uint32  `json:"source,omitempty"`
	Seeds     []uint32 `json:"seeds,omitempty"`
	Epsilon   *float64 `json:"epsilon,omitempty"`
	Durable   bool     `json:"durable,omitempty"`
}

// jobResp is the subset of the job status the benchmark reads.
type jobResp struct {
	ID        string          `json:"id"`
	State     string          `json:"state"`
	Cached    bool            `json:"cached"`
	ElapsedMS float64         `json:"elapsed_ms"`
	Error     string          `json:"error"`
	Float     json.RawMessage `json:"float"`
	Uint      json.RawMessage `json:"uint"`
	Stats     *struct {
		EdgesTraversed int64   `json:"edges_traversed"`
		WallMS         float64 `json:"wall_ms"`
	} `json:"stats"`
}

func (r *jobResp) values() []byte {
	if r.Float != nil {
		return r.Float
	}
	return r.Uint
}

// coldRec is a finished cold job the hit, values and query requests read.
type coldRec struct {
	req    jobReq
	body   []byte
	id     string
	values []byte // raw JSON values from the first fetch; nil if it failed
}

// serveSamples collects one pass of the open loop.
type serveSamples struct {
	cold, hit, values, query, submit, status durations
	queueWait, run, lag                      durations
	stepCold, stepLag                        [3]durations
	mu                                       sync.Mutex
	respBytes                                []float64
	edgesPerE                                map[string][]float64
	wallMS, edges                            float64
	submits, cached, rejects, ok             atomic.Int64
}

type serveRunner struct {
	e       *env
	base    string
	client  *http.Client
	g       *graph.Graph
	or      *oracle
	sources []uint32
	seeds   [][]uint32
	fresh   atomic.Int64
	picks   *rand.Rand // draws each planned request's pick, in plan order
	pool    []*coldRec // finished cold jobs that hits and value reads use
}

// runServe is the serve-mix workload: graphabcdd's handler behind
// httptest, driven open loop at three fixed offered rates.
func runServe(e *env) error {
	type state struct {
		g      *graph.Graph
		ts     *httptest.Server
		ckpt   string
		client *http.Client
	}
	st, done, err := timedSetup(e, func(i int) (state, func(), error) {
		g, err := analog("WT", e.sz.serveShrink)
		if err != nil {
			return state{}, nil, err
		}
		root := filepath.Join(e.work, fmt.Sprintf("serve-%d", i))
		graphs, ckpt := filepath.Join(root, "graphs"), filepath.Join(root, "ckpt")
		if err := errors.Join(os.MkdirAll(graphs, 0o755), os.MkdirAll(ckpt, 0o755)); err != nil {
			return state{}, nil, err
		}
		if err := graph.SaveFormat(filepath.Join(graphs, "wt.gabs"), g, graph.FormatSnapshot); err != nil {
			return state{}, nil, err
		}
		srv, err := serve.New(serve.Options{GraphDir: graphs, CheckpointDir: ckpt, Preload: []string{"wt"}})
		if err != nil {
			return state{}, nil, err
		}
		ts := httptest.NewServer(srv.Handler())
		tr := &http.Transport{MaxConnsPerHost: clientConns, MaxIdleConnsPerHost: clientConns, DisableCompression: true}
		client := &http.Client{Transport: tr, Timeout: 60 * time.Second}
		release := func() {
			tr.CloseIdleConnections()
			ts.Close()
			srv.Close()
			_ = os.RemoveAll(root)
		}
		return state{g: g, ts: ts, ckpt: ckpt, client: client}, release, nil
	})
	if err != nil {
		return err
	}
	defer done()
	r := e.rng(1)
	s := &serveRunner{e: e, base: st.ts.URL, client: st.client, g: st.g, sources: pickSources(st.g, r, numSources), picks: e.rng(100)}
	for range s.sources {
		s.seeds = append(s.seeds, pickSources(st.g, r, 3))
	}
	s.or = newOracle(st.g, s.sources)
	if err := s.warm(); err != nil {
		return err
	}

	if !e.trace {
		start := time.Now()
		smp := s.openLoop(e.seconds, 0)
		elapsed := time.Since(start).Seconds()
		cold := smp.boundedCold()
		e.rep.e2e("job_p50_s", median(cold), "s", len(cold))
		e.rep.e2e("job_p90_s", quantile(cold, 0.9), "s", len(cold))
		ok := smp.ok.Load()
		e.rep.e2e("jobs_per_s", ratio(float64(ok), elapsed), "1/s", int(ok))
		return nil
	}
	plain := s.openLoop(e.seconds/2, 0)
	e.tr.on.Store(true)
	smp := s.openLoop(e.seconds/2, 1<<20)
	e.tr.on.Store(false)
	overhead(e, plain.boundedCold(), smp.boundedCold())
	s.reportLayers(smp, st.ckpt)
	return nil
}

// boundedCold returns the cold-job latencies of the light step, the ones
// job_p50_s and job_p90_s are taken from. In an open loop, queueing
// multiplies any change in machine speed by more the busier the server
// is, so the busier steps are reported per layer (serve.cold_p99_s,
// serve.max_ok_rps) rather than bounded.
func (smp *serveSamples) boundedCold() []float64 { return smp.stepCold[0].values() }

// stepShare is the share of the open loop each rate step runs for. The
// light step, which the bounded job latencies come from, runs longest:
// its p90 needs about ten cold jobs above it.
var stepShare = [3]float64{0.6, 0.2, 0.2}

// warm runs, before any timing, poolPerAlgo cold jobs per algorithm (the
// pool hits and value reads pick from) and one point query per query key
// (so queries read cached results).
func (s *serveRunner) warm() error {
	// Warm-up outcomes are not part of the run's attempts.
	rep := s.e.rep
	s.e.rep = newReport()
	defer func() { s.e.rep = rep }()
	smp := newServeSamples()
	for i := 0; i < poolPerAlgo*len(serveAlgos); i++ {
		rec := s.cold(smp, time.Now(), 0, int64(i))
		if rec == nil {
			return fmt.Errorf("serve-mix warm-up: cold job %d failed", i)
		}
		if rec.id == "" {
			if err := s.newestID(rec); err != nil {
				return fmt.Errorf("serve-mix warm-up: %w", err)
			}
		}
		s.pool = append(s.pool, rec)
	}
	for k := 0; k < len(serveAlgos)*queryKeys; k++ {
		s.query(smp, time.Now(), k, 0)
	}
	return nil
}

// newestID sets rec's id to that of the server's newest job, which must be
// a finished job of rec's algorithm. Warm-up submits one job at a time, so
// this recovers the id of a job whose submit answer was the empty body.
func (s *serveRunner) newestID(rec *coldRec) error {
	code, b, _, err := s.do("GET", "/v1/jobs", nil)
	if err != nil || code != http.StatusOK {
		return fmt.Errorf("listing jobs: status %d %v", code, err)
	}
	var list struct {
		Jobs []struct {
			ID        string `json:"id"`
			Algorithm string `json:"algorithm"`
			State     string `json:"state"`
		} `json:"jobs"`
	}
	if err := json.Unmarshal(b, &list); err != nil {
		return fmt.Errorf("listing jobs: %w", err)
	}
	if n := len(list.Jobs); n > 0 && list.Jobs[n-1].Algorithm == rec.req.Algorithm && list.Jobs[n-1].State == "done" {
		rec.id = list.Jobs[n-1].ID
		return nil
	}
	return fmt.Errorf("newest job is not the finished %s job just submitted", rec.req.Algorithm)
}

func newServeSamples() *serveSamples {
	return &serveSamples{edgesPerE: map[string][]float64{}}
}

// openLoop issues the mix at the three offered rates in turn, each for
// its stepShare of d. Every request is due at a fixed time; clientConns
// workers take requests in due order, so a stall delays later requests,
// and each latency counts from the due time. trace offsets the span trace
// ids of this pass.
func (s *serveRunner) openLoop(d time.Duration, trace int64) *serveSamples {
	smp := newServeSamples()
	type planned struct {
		due  time.Time
		kind int
		step int
		seq  int
		pick int // the pool entry of a hit or value read, the key of a query
	}
	base := time.Now().Add(10 * time.Millisecond)
	var plan []planned
	for step, rate := range s.e.sz.serveRates {
		gap := time.Duration(float64(time.Second) / rate)
		stepDur := time.Duration(stepShare[step] * float64(d))
		for t := time.Duration(0); t < stepDur; t += gap {
			plan = append(plan, planned{due: base.Add(t), kind: serveMix[len(plan)%len(serveMix)], step: step, seq: len(plan), pick: s.picks.IntN(1 << 30)})
		}
		base = base.Add(stepDur)
	}
	queue := make(chan planned, len(plan)) // holds the whole plan: the generator never blocks
	for _, p := range plan {
		queue <- p
	}
	close(queue)
	// A request more than this late is abandoned: the backlog has grown
	// past any useful answer, and the run must end in bounded time.
	const maxLag = 5 * time.Second
	var wg sync.WaitGroup
	for w := 0; w < clientConns; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for p := range queue {
				if wait := time.Until(p.due); wait > 0 {
					time.Sleep(wait)
				}
				lag := time.Since(p.due)
				smp.lag.add(lag)
				smp.stepLag[p.step].add(lag)
				if lag > maxLag {
					s.e.rep.attempt("abandoned: load generator more than 5s behind")
					continue
				}
				id := trace + int64(p.seq) + 1
				switch p.kind {
				case kindCold:
					s.cold(smp, p.due, p.step, id)
				case kindHit:
					s.hit(smp, p.due, s.pool[p.pick%len(s.pool)], id)
				case kindValues:
					s.fetchValues(smp, p.due, s.pool[p.pick%len(s.pool)], id)
				case kindQuery:
					s.query(smp, p.due, p.pick, id)
				}
			}
		}()
	}
	wg.Wait()
	return smp
}

// do sends one request and reads the whole body. It returns the status,
// the body and the round-trip time.
func (s *serveRunner) do(method, path string, body []byte) (int, []byte, time.Duration, error) {
	var rd io.Reader
	if body != nil {
		rd = bytes.NewReader(body)
	}
	req, err := http.NewRequest(method, s.base+path, rd)
	if err != nil {
		return 0, nil, 0, err
	}
	t0 := time.Now()
	resp, err := s.client.Do(req)
	if err != nil {
		return 0, nil, time.Since(t0), err
	}
	b, err := io.ReadAll(resp.Body)
	_ = resp.Body.Close()
	return resp.StatusCode, b, time.Since(t0), err
}

// fail counts a failed request; refusals are also counted as rejects.
func (s *serveRunner) fail(smp *serveSamples, code int, reason string) {
	if code == http.StatusTooManyRequests || code == http.StatusServiceUnavailable {
		smp.rejects.Add(1)
		reason = fmt.Sprintf("refused %d", code)
	}
	s.e.rep.attempt(reason)
}

func (s *serveRunner) succeed(smp *serveSamples) {
	smp.ok.Add(1)
	s.e.rep.attempt("")
}

// cold submits fresh params (a new epsilon, so the cache key is new),
// waits for its event stream to end, reads its status and then its
// values, and checks them. It returns the finished job, or nil.
func (s *serveRunner) cold(smp *serveSamples, due time.Time, step int, trace int64) *coldRec {
	k := s.fresh.Add(1)
	alg := serveAlgos[k%int64(len(serveAlgos))]
	eps := 1e-9 * (1 + float64(k)*1e-6)
	req := jobReq{Algorithm: alg, Graph: "wt", Epsilon: &eps, Durable: k%4 == 0}
	switch alg {
	case "sssp", "bfs":
		src := s.sources[int(k/int64(len(serveAlgos)))%len(s.sources)]
		req.Source = &src
	case "ppr":
		req.Seeds = s.seeds[int(k/int64(len(serveAlgos)))%len(s.seeds)]
	}
	body, _ := json.Marshal(req)
	tr := s.e.tr
	root := tr.start("serve.cold", trace, 0)
	sp := tr.start("POST /v1/jobs", trace, root.id)
	code, b, rt, err := s.do("POST", "/v1/jobs", body)
	sp.end(1, "requests")
	smp.submits.Add(1)
	// A job that finishes before the handler reads its state is answered
	// 200 instead of 202; either is a cold submit unless it is cached.
	if err != nil || (code != http.StatusAccepted && code != http.StatusOK) {
		s.fail(smp, code, fmt.Sprintf("cold submit: status %d %v", code, err))
		return nil
	}
	smp.submit.add(rt)
	rec := &coldRec{req: req, body: body}
	if code == http.StatusOK && len(b) == 0 {
		// The job finished before the handler read its state, so the
		// answer carried its values, and an SSSP result holding +Inf
		// came back as the defect's empty body. That is the same two
		// operations as the slower path: a finished job, and a value
		// read that failed. The job's id was in the lost body.
		lat := time.Since(due)
		root.end(1, "jobs")
		smp.cold.add(lat)
		smp.stepCold[step].add(lat)
		s.succeed(smp)
		s.fail(smp, code, "values: "+emptyBody)
		return rec
	}
	var jr jobResp
	if err := json.Unmarshal(b, &jr); err != nil {
		s.fail(smp, code, "cold submit: "+err.Error())
		return nil
	}
	if jr.Cached {
		s.fail(smp, code, "cold submit answered from cache")
		return nil
	}
	// The job's event stream ends once the job is terminal.
	sp = tr.start("GET /v1/jobs/{id}/events", trace, root.id)
	code, _, _, err = s.do("GET", "/v1/jobs/"+jr.ID+"/events", nil)
	sp.end(1, "requests")
	lat := time.Since(due)
	root.end(1, "jobs")
	if err != nil || code != http.StatusOK {
		s.fail(smp, code, fmt.Sprintf("events: status %d %v", code, err))
		return nil
	}
	sp = tr.start("GET /v1/jobs/{id}?values=false", trace, root.id)
	code, b, rt, err = s.do("GET", "/v1/jobs/"+jr.ID+"?values=false", nil)
	sp.end(float64(len(b)), "bytes")
	if err != nil || code != http.StatusOK {
		s.fail(smp, code, fmt.Sprintf("status: %d %v", code, err))
		return nil
	}
	smp.status.add(rt)
	if err := json.Unmarshal(b, &jr); err != nil {
		s.fail(smp, code, "status: "+err.Error())
		return nil
	}
	if jr.State != "done" || jr.Stats == nil {
		s.fail(smp, 0, "cold job ended "+jr.State+": "+jr.Error)
		return nil
	}
	smp.cold.add(lat)
	smp.stepCold[step].add(lat)
	smp.queueWait.add(time.Duration((jr.ElapsedMS - jr.Stats.WallMS) * float64(time.Millisecond)))
	smp.run.add(time.Duration(jr.Stats.WallMS * float64(time.Millisecond)))
	m := float64(s.g.NumEdges())
	smp.mu.Lock()
	smp.edgesPerE[alg] = append(smp.edgesPerE[alg], float64(jr.Stats.EdgesTraversed)/m)
	smp.wallMS += jr.Stats.WallMS
	smp.edges += float64(jr.Stats.EdgesTraversed)
	smp.mu.Unlock()
	s.succeed(smp)

	rec.id = jr.ID
	rec.values = s.getValues(smp, rec, trace, root.id)
	return rec
}

// getValues fetches a finished job's values and checks them against the
// oracle, or against the bytes an earlier fetch returned.
func (s *serveRunner) getValues(smp *serveSamples, rec *coldRec, trace, parent int64) []byte {
	sp := s.e.tr.start("GET /v1/jobs/{id}?values=true", trace, parent)
	code, b, _, err := s.do("GET", "/v1/jobs/"+rec.id+"?values=true", nil)
	sp.end(float64(len(b)), "bytes")
	if err != nil || code != http.StatusOK {
		s.fail(smp, code, fmt.Sprintf("values: status %d %v", code, err))
		return nil
	}
	if len(b) == 0 {
		s.fail(smp, code, "values: "+emptyBody)
		return nil
	}
	var jr jobResp
	if err := json.Unmarshal(b, &jr); err != nil {
		s.fail(smp, code, "values: "+err.Error())
		return nil
	}
	if bad := s.checkValues(rec, jr.values()); bad != "" {
		s.e.rep.wrongAnswer("values of " + rec.req.Algorithm + ": " + bad)
		s.fail(smp, code, "wrong answer")
		return nil
	}
	smp.mu.Lock()
	smp.respBytes = append(smp.respBytes, float64(len(b)))
	smp.mu.Unlock()
	s.succeed(smp)
	return jr.values()
}

// checkValues compares raw JSON values with the bytes the job's first
// fetch returned, or, for the first fetch, with the oracle.
func (s *serveRunner) checkValues(rec *coldRec, raw []byte) string {
	if rec.values != nil {
		if !bytes.Equal(raw, rec.values) {
			return "bytes differ from the job's first fetch"
		}
		return ""
	}
	var fl []float64
	var ui []uint64
	var err error
	if rec.req.Algorithm == "bfs" || rec.req.Algorithm == "cc" {
		err = json.Unmarshal(raw, &ui)
	} else {
		err = json.Unmarshal(raw, &fl)
	}
	if err != nil {
		return err.Error()
	}
	var src uint32
	if rec.req.Source != nil {
		src = *rec.req.Source
	}
	return s.or.check(rec.req.Algorithm, src, rec.req.Seeds, fl, ui)
}

// hit resubmits a finished job's params; the answer must come from the
// cache with values byte-identical to the cold job's.
func (s *serveRunner) hit(smp *serveSamples, due time.Time, rec *coldRec, trace int64) {
	sp := s.e.tr.start("POST /v1/jobs (hit)", trace, 0)
	code, b, _, err := s.do("POST", "/v1/jobs", rec.body)
	sp.end(float64(len(b)), "bytes")
	smp.submits.Add(1)
	if err != nil || code != http.StatusOK {
		s.fail(smp, code, fmt.Sprintf("hit: status %d %v", code, err))
		return
	}
	if len(b) == 0 {
		s.fail(smp, code, "hit: "+emptyBody)
		return
	}
	var jr jobResp
	if err := json.Unmarshal(b, &jr); err != nil {
		s.fail(smp, code, "hit: "+err.Error())
		return
	}
	if !jr.Cached {
		s.fail(smp, code, "hit: resubmit not answered from cache")
		return
	}
	smp.cached.Add(1)
	if bad := s.checkValues(rec, jr.values()); bad != "" {
		s.e.rep.wrongAnswer("cache hit of " + rec.req.Algorithm + ": " + bad)
		s.fail(smp, code, "wrong answer")
		return
	}
	smp.hit.add(time.Since(due))
	s.succeed(smp)
}

// fetchValues re-reads a finished job's values.
func (s *serveRunner) fetchValues(smp *serveSamples, due time.Time, rec *coldRec, trace int64) {
	if s.getValues(smp, rec, trace, 0) != nil {
		smp.values.add(time.Since(due))
	}
}

// query sends the k-th point query: distances, levels or component ids
// of eight vertices, or the top ten of a PageRank/PPR result. Query
// params carry no epsilon, so after warm-up every query key is cached.
func (s *serveRunner) query(smp *serveSamples, due time.Time, k int, trace int64) {
	alg := serveAlgos[k%len(serveAlgos)]
	i := (k / len(serveAlgos)) % queryKeys
	q := "/v1/query?graph=wt&algorithm=" + alg
	var verts []uint32
	switch alg {
	case "sssp", "bfs", "cc":
		if alg != "cc" {
			q += "&source=" + strconv.FormatUint(uint64(s.sources[i]), 10)
		}
		n := s.g.NumVertices()
		var parts []string
		for j := 0; j < 8; j++ {
			v := uint32((k*7919 + j*104729) % n)
			verts = append(verts, v)
			parts = append(parts, strconv.FormatUint(uint64(v), 10))
		}
		q += "&vertices=" + strings.Join(parts, ",")
	case "ppr":
		var parts []string
		for _, v := range s.seeds[i] {
			parts = append(parts, strconv.FormatUint(uint64(v), 10))
		}
		q += "&seeds=" + strings.Join(parts, ",") + "&top=10"
	default:
		q += "&top=10"
	}
	sp := s.e.tr.start("GET /v1/query", trace, 0)
	code, b, _, err := s.do("GET", q, nil)
	sp.end(float64(len(b)), "bytes")
	if err != nil || code != http.StatusOK {
		s.fail(smp, code, fmt.Sprintf("query: status %d %v", code, err))
		return
	}
	if len(b) == 0 {
		s.fail(smp, code, "query: "+emptyBody)
		return
	}
	var body struct {
		Cached bool                       `json:"cached"`
		Values map[string]json.RawMessage `json:"values"`
		Top    []struct {
			Vertex uint32  `json:"vertex"`
			Value  float64 `json:"value"`
		} `json:"top"`
	}
	if err := json.Unmarshal(b, &body); err != nil {
		s.fail(smp, code, "query: "+err.Error())
		return
	}
	if body.Cached {
		smp.cached.Add(1)
	}
	smp.submits.Add(1)
	if bad := s.checkQuery(alg, i, verts, body.Values, len(body.Top), func(j int) (uint32, float64) {
		return body.Top[j].Vertex, body.Top[j].Value
	}); bad != "" {
		s.e.rep.wrongAnswer("query " + alg + ": " + bad)
		s.fail(smp, code, "wrong answer")
		return
	}
	smp.query.add(time.Since(due))
	s.succeed(smp)
}

// checkQuery checks a point query's answer against the oracle: exact
// values for sssp/bfs/cc, the reference ranks of the returned top
// vertices for pagerank, and for ppr (no oracle) non-negative values in
// descending order.
func (s *serveRunner) checkQuery(alg string, i int, verts []uint32, vals map[string]json.RawMessage, ntop int, top func(int) (uint32, float64)) string {
	src := s.sources[i]
	for _, v := range verts {
		raw, ok := vals[strconv.FormatUint(uint64(v), 10)]
		if !ok {
			return fmt.Sprintf("vertex %d missing", v)
		}
		switch alg {
		case "sssp":
			var got float64
			if err := json.Unmarshal(raw, &got); err != nil || got != s.or.sssp[src][v] {
				return fmt.Sprintf("dist[%d] = %s, reference %g", v, raw, s.or.sssp[src][v])
			}
		case "bfs", "cc":
			want := s.or.cc[v]
			if alg == "bfs" {
				want = s.or.bfs[src][v]
			}
			var got uint64
			if err := json.Unmarshal(raw, &got); err != nil || got != want {
				return fmt.Sprintf("value[%d] = %s, reference %d", v, raw, want)
			}
		}
	}
	if alg != "pagerank" && alg != "ppr" {
		return ""
	}
	if ntop == 0 {
		return "empty top list"
	}
	prev := math.Inf(1)
	for j := 0; j < ntop; j++ {
		v, val := top(j)
		if val < 0 || val > prev {
			return fmt.Sprintf("top[%d] = %g out of order or negative", j, val)
		}
		prev = val
		if alg == "pagerank" && math.Abs(val-s.or.pr[v]) > prTolerance {
			return fmt.Sprintf("rank[%d] = %g, reference %g", v, val, s.or.pr[v])
		}
	}
	return ""
}

// reportLayers derives the serve-mix per-layer metrics of a traced pass.
func (s *serveRunner) reportLayers(smp *serveSamples, ckpt string) {
	rep := s.e.rep
	cold := smp.cold.values()
	values, status := smp.values.values(), smp.status.values()
	rep.perLayer("serve.submit_s", median(smp.submit.values()), "s", len(smp.submit.values()))
	rep.perLayer("serve.queue_wait_s", median(smp.queueWait.values()), "s", len(cold))
	rep.perLayer("serve.run_s", median(smp.run.values()), "s", len(cold))
	rep.perLayer("serve.encode_s", median(s.e.tr.durations("GET /v1/jobs/{id}?values=true"))-median(status), "s", len(values))
	rep.perLayer("serve.response_bytes_per_vertex", median(smp.respBytes)/float64(s.g.NumVertices()), "B/vertex", len(smp.respBytes))
	submits, rejects := smp.submits.Load(), float64(smp.rejects.Load())
	rep.perLayer("serve.cache_hit_ratio", ratio(float64(smp.cached.Load()), float64(submits)), "ratio", int(submits))
	attempts := float64(len(cold)) + float64(len(smp.hit.values())+len(values)+len(smp.query.values()))
	rep.perLayer("serve.reject_ratio", ratio(rejects, attempts+rejects), "ratio", 0)
	rep.perLayer("serve.journal_bytes", float64(fileSize(filepath.Join(ckpt, "jobs.jsonl"))), "B", 0)
	rep.perLayer("checkpoint.dir_bytes", float64(dirBytes(ckpt)-fileSize(filepath.Join(ckpt, "jobs.jsonl"))), "B", 0)
	rep.perLayer("serve.cold_p99_s", quantile(cold, 0.99), "s", len(cold))
	hit, query := smp.hit.values(), smp.query.values()
	rep.perLayer("serve.hit_p50_s", median(hit), "s", len(hit))
	rep.perLayer("serve.hit_p99_s", quantile(hit, 0.99), "s", len(hit))
	rep.perLayer("serve.query_p50_s", median(query), "s", len(query))
	rep.perLayer("serve.query_p99_s", quantile(query, 0.99), "s", len(query))
	okRate := 0.0
	for i, rate := range s.e.sz.serveRates {
		c, lag := smp.stepCold[i].values(), smp.stepLag[i].values()
		if len(c) > 0 && quantile(c, 0.99) <= s.e.sz.coldLimit && quantile(lag, 0.99) <= s.e.sz.coldLimit {
			okRate = rate
		}
	}
	rep.perLayer("serve.max_ok_rps", okRate, "1/s", 0)
	lag := smp.lag.values()
	rep.perLayer("loadgen.lag_p99_s", quantile(lag, 0.99), "s", len(lag))
	rep.perLayer("core.live_ns_per_edge", ratio(smp.wallMS*1e6, smp.edges), "ns/edge", len(cold))
	trivial, jobs := 0, 0
	for _, alg := range serveAlgos {
		xs := smp.edgesPerE[alg]
		rep.perLayer("bcd.edges_per_E."+alg, median(xs), "ratio", len(xs))
		for _, x := range xs {
			jobs++
			if x < 1.5 {
				trivial++
			}
		}
	}
	rep.perLayer("bcd.trivial_job_share", ratio(float64(trivial), float64(jobs)), "ratio", jobs)
}

// dirBytes sums the sizes of the regular files under dir.
func dirBytes(dir string) int64 {
	var total int64
	_ = filepath.WalkDir(dir, func(_ string, d fs.DirEntry, err error) error {
		if err == nil && d.Type().IsRegular() {
			if fi, err := d.Info(); err == nil {
				total += fi.Size()
			}
		}
		return nil
	})
	return total
}
