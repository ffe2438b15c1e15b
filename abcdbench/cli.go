package main

import (
	"bytes"
	"context"
	"fmt"
	"os"
	"path/filepath"
	"time"

	"graphabcd"
	"graphabcd/internal/checkpoint"
	"graphabcd/internal/graph"
	"graphabcd/internal/telemetry"
)

// cliAlgos is the cli-lj rotation, one job each in turn.
var cliAlgos = []string{"pagerank", "sssp", "cc", "bfs", "ppr"}

// cliJob is one closed-loop job: Load the snapshot, run, write values.
type cliJob struct {
	alg                 string
	total, run          time.Duration
	write, engine       time.Duration
	edges, scatterW     int64
	gatherNS, scatterNS float64
}

type cliRunner struct {
	e       *env
	rt      graphabcd.Runtime
	snap    string
	g       *graph.Graph
	or      *oracle
	sources []uint32
	seeds   [][]uint32
	bs      int
	out     string
}

// runCLI is the cli-lj workload: the CLI path in a closed loop on the LJ
// analog, one job at a time.
func runCLI(e *env) error {
	type state struct {
		g    *graph.Graph
		snap string
	}
	st, done, err := timedSetup(e, func(i int) (state, func(), error) {
		g, err := analog("LJ", e.sz.cliShrink)
		if err != nil {
			return state{}, nil, err
		}
		snap := filepath.Join(e.work, fmt.Sprintf("lj-%d.gabs", i))
		if err := graphabcd.Save(snap, g); err != nil {
			return state{}, nil, err
		}
		return state{g, snap}, func() { _ = os.Remove(snap) }, nil
	})
	if err != nil {
		return err
	}
	defer done()
	r := e.rng(1)
	c := &cliRunner{
		e: e, rt: graphabcd.NewRuntime(), snap: st.snap, g: st.g,
		sources: pickSources(st.g, r, numSources),
		bs:      max(16, st.g.NumVertices()/256),
		out:     filepath.Join(e.work, "values.txt"),
	}
	for range c.sources {
		c.seeds = append(c.seeds, pickSources(st.g, r, 3))
	}
	c.or = newOracle(st.g, c.sources)
	m := float64(st.g.NumEdges())
	rep := e.rep

	if !e.trace {
		jobs := c.loop(e.seconds, nil)
		reportJobs(e, jobTimes(jobs))
		return nil
	}

	scheds, err := c.record()
	if err != nil {
		return err
	}
	plain := c.loop(e.seconds/2, nil)
	e.tr.on.Store(true)
	replayNS := map[string][]float64{}
	traced := c.loop(e.seconds/2, func(k int) { c.replayOnce(k, scheds, replayNS) })
	e.tr.on.Store(false)
	for _, alg := range replayAlgos {
		rep.perLayer("core.replay_ns_per_edge."+alg, median(replayNS[alg]), "ns/edge", len(replayNS[alg]))
	}

	overhead(e, jobTimes(plain), jobTimes(traced))
	loadDur, loadEdges := e.tr.total("graphabcd.Load")
	rep.perLayer("graph.snapshot_decode_ns_per_edge", ratio(float64(loadDur), loadEdges), "ns/edge", len(traced))
	rep.perLayer("graph.snapshot_bytes_per_edge", float64(fileSize(c.snap))/m, "B/edge", 0)
	var engine, edges, scatterW, gatherNS, scatterNS float64
	perAlg := map[string][]float64{}
	var dispatch, write []float64
	trivial := 0
	for _, j := range traced {
		engine += float64(j.engine)
		edges += float64(j.edges)
		scatterW += float64(j.scatterW)
		gatherNS += j.gatherNS
		scatterNS += j.scatterNS
		perAlg[j.alg] = append(perAlg[j.alg], float64(j.edges)/m)
		if float64(j.edges)/m < 1.5 {
			trivial++
		}
		dispatch = append(dispatch, (j.run - j.engine).Seconds())
		write = append(write, j.write.Seconds())
	}
	rep.perLayer("core.live_ns_per_edge", ratio(engine, edges), "ns/edge", len(traced))
	rep.perLayer("core.gather_ns_per_edge", ratio(gatherNS, edges), "ns/edge", len(traced))
	rep.perLayer("core.scatter_ns_per_edge", ratio(scatterNS, edges), "ns/edge", len(traced))
	rep.perLayer("bcd.scatter_writes_per_edge", ratio(scatterW, edges), "ratio", len(traced))
	for _, alg := range cliAlgos {
		rep.perLayer("bcd.edges_per_E."+alg, median(perAlg[alg]), "ratio", len(perAlg[alg]))
	}
	rep.perLayer("bcd.trivial_job_share", ratio(float64(trivial), float64(len(traced))), "ratio", len(traced))
	rep.perLayer("runtime.dispatch_s", median(dispatch), "s", len(dispatch))
	rep.perLayer("cli.values_write_s", median(write), "s", len(write))
	return nil
}

// loop runs jobs back to back until d has passed, calling between (when
// non-nil) after the k-th job.
func (c *cliRunner) loop(d time.Duration, between func(k int)) []cliJob {
	var jobs []cliJob
	start := time.Now()
	for k := 0; time.Since(start) < d; k++ {
		if j, ok := c.job(k); ok {
			jobs = append(jobs, j)
		}
		if between != nil {
			between(k)
		}
	}
	return jobs
}

// job runs the k-th job of the rotation and checks its values.
func (c *cliRunner) job(k int) (cliJob, bool) {
	e, tr := c.e, c.e.tr
	alg := cliAlgos[k%len(cliAlgos)]
	src := c.sources[(k/len(cliAlgos))%len(c.sources)]
	seeds := c.seeds[(k/len(cliAlgos))%len(c.seeds)]
	j := cliJob{alg: alg}
	trace := int64(k + 1)
	root := tr.start("cli.job", trace, 0)

	sp := tr.start("graphabcd.Load", trace, root.id)
	g, err := graphabcd.Load(c.snap)
	if err != nil {
		e.rep.attempt("load: " + err.Error())
		return j, false
	}
	sp.end(float64(g.NumEdges()), "edges")

	opts := []graphabcd.JobOption{graphabcd.WithSource(src), graphabcd.WithSeeds(seeds...)}
	var tel *telemetry.Registry
	if tr.on.Load() {
		tel = telemetry.New(telemetry.Options{Histograms: true})
		cfg := graphabcd.DefaultConfig(c.bs)
		cfg.Telemetry = tel
		opts = append(opts, graphabcd.WithConfig(cfg))
	}
	sp = tr.start("graphabcd.Runtime.Run", trace, root.id)
	res, err := runJob(c.rt, graphabcd.NewJobSpec(alg, g, opts...))
	if err != nil {
		e.rep.attempt("run: " + err.Error())
		return j, false
	}
	j.run = sp.end(float64(res.Stats.EdgesTraversed), "edges")
	j.engine = res.Stats.WallTime
	j.edges = res.Stats.EdgesTraversed
	j.scatterW = res.Stats.ScatterWrites
	if tel != nil {
		snap := tel.Snapshot()
		gs, ss := snap.Stages[telemetry.StageGather.Name()], snap.Stages[telemetry.StageScatter.Name()]
		j.gatherNS = gs.Mean * float64(gs.Count)
		j.scatterNS = ss.Mean * float64(ss.Count)
	}

	sp = tr.start("cli.values_write", trace, root.id)
	if err := writeValues(c.out, res); err != nil {
		e.rep.attempt("values write: " + err.Error())
		return j, false
	}
	j.write = sp.end(float64(g.NumVertices()), "vertices")
	j.total = root.end(1, "jobs")

	if bad := c.or.check(alg, src, seeds, res.Float, res.Uint); bad != "" {
		e.rep.wrongAnswer(bad)
		e.rep.attempt("wrong answer")
		return j, false
	}
	e.rep.attempt("")
	return j, true
}

// runJob submits spec and waits for its result.
func runJob(rt graphabcd.Runtime, spec graphabcd.JobSpec) (*graphabcd.JobResult, error) {
	ctx, cancel := context.WithTimeout(context.Background(), 60*time.Second)
	defer cancel()
	h, err := rt.Run(ctx, spec)
	if err != nil {
		return nil, err
	}
	return h.Wait(ctx)
}

// replayAlgos are the programs whose recorded schedule is replayed.
var replayAlgos = []string{"pagerank", "cc", "sssp"}

// record runs each replayed program once with Config.RecordSchedule and
// decodes the schedule it issued.
func (c *cliRunner) record() (map[string][]uint32, error) {
	out := map[string][]uint32{}
	nb := (c.g.NumVertices() + c.bs - 1) / c.bs
	for _, alg := range replayAlgos {
		var buf bytes.Buffer
		cfg := graphabcd.DefaultConfig(c.bs)
		cfg.RecordSchedule = &buf
		if _, err := runJob(c.rt, graphabcd.NewJobSpec(alg, c.g, graphabcd.WithConfig(cfg), graphabcd.WithSource(c.sources[0]))); err != nil {
			return nil, fmt.Errorf("recording %s: %w", alg, err)
		}
		s, err := checkpoint.ReadSchedule(bytes.NewReader(buf.Bytes()), nb)
		if err != nil {
			return nil, fmt.Errorf("decoding %s schedule: %w", alg, err)
		}
		out[alg] = s
	}
	return out, nil
}

// replayOnce times one core.ReplaySchedule run (through the registry's
// WithSchedule) of the k-th replayed program and records its ns/edge.
// The work is fixed and bit-identical across replays, so this is the
// kernel number with no scheduling luck in it. Replays are interleaved
// with the traced pass's jobs rather than bunched at its end, so they
// sample the whole pass and not one moment of the machine's speed.
func (c *cliRunner) replayOnce(k int, scheds map[string][]uint32, ns map[string][]float64) {
	alg := replayAlgos[k%len(replayAlgos)]
	sp := c.e.tr.start("core.ReplaySchedule."+alg, int64(-1-k), 0)
	res, err := runJob(c.rt, graphabcd.NewJobSpec(alg, c.g,
		graphabcd.WithConfig(graphabcd.DefaultConfig(c.bs)),
		graphabcd.WithSchedule(scheds[alg]), graphabcd.WithSource(c.sources[0])))
	if err != nil {
		c.e.rep.attempt("replay: " + err.Error())
		return
	}
	sp.end(float64(res.Stats.EdgesTraversed), "edges")
	if bad := c.or.check(alg, c.sources[0], nil, res.Float, res.Uint); bad != "" {
		c.e.rep.wrongAnswer("replay " + bad)
		c.e.rep.attempt("wrong answer")
		return
	}
	c.e.rep.attempt("")
	ns[alg] = append(ns[alg], ratio(float64(res.Stats.WallTime), float64(res.Stats.EdgesTraversed)))
}

func jobTimes(jobs []cliJob) []float64 {
	out := make([]float64, len(jobs))
	for i, j := range jobs {
		out[i] = j.total.Seconds()
	}
	return out
}
