package main

import (
	"bufio"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"time"

	"graphabcd/internal/graph"
)

// ingestJob is one parse → snapshot write → snapshot read cycle.
type ingestJob struct {
	total, parse, build, encode, decode time.Duration
}

// runIngest is the ingest-rmat workload: a closed loop over one seeded
// R-MAT text edge list.
func runIngest(e *env) error {
	type state struct {
		text string
		g    *graph.Graph
	}
	st, done, err := timedSetup(e, func(i int) (state, func(), error) {
		g, err := e.seededRMAT(e.sz.ingestScale, e.sz.ingestEF)
		if err != nil {
			return state{}, nil, err
		}
		text := filepath.Join(e.work, fmt.Sprintf("rmat-%d.txt", i))
		if err := writeEdgeListFile(text, g); err != nil {
			return state{}, nil, err
		}
		return state{text: text, g: g}, func() { _ = os.Remove(text) }, nil
	})
	if err != nil {
		return err
	}
	defer done()
	want := digestOf(st.g)
	snap := filepath.Join(e.work, "rmat.gabs")
	defer func() { _ = os.Remove(snap) }()

	loop := func(d time.Duration) []ingestJob {
		var jobs []ingestJob
		start := time.Now()
		for k := 0; time.Since(start) < d; k++ {
			j, err := ingestOnce(e, st.text, snap, want, int64(k+1))
			if err != "" {
				e.rep.attempt(err)
				continue
			}
			e.rep.attempt("")
			jobs = append(jobs, j)
		}
		return jobs
	}
	times := func(jobs []ingestJob) []float64 {
		out := make([]float64, len(jobs))
		for i, j := range jobs {
			out[i] = j.total.Seconds()
		}
		return out
	}
	if !e.trace {
		reportJobs(e, times(loop(e.seconds)))
		return nil
	}
	plain := loop(e.seconds / 2)
	e.tr.on.Store(true)
	traced := loop(e.seconds / 2)
	e.tr.on.Store(false)
	overhead(e, times(plain), times(traced))

	var parse, build, encode, decode []float64
	m := float64(st.g.NumEdges())
	for _, j := range traced {
		parse = append(parse, float64(j.parse-j.build)/m)
		build = append(build, float64(j.build)/m)
		encode = append(encode, float64(j.encode)/m)
		decode = append(decode, float64(j.decode)/m)
	}
	n := len(traced)
	e.rep.perLayer("graph.parse_ns_per_edge", median(parse), "ns/edge", n)
	e.rep.perLayer("graph.build_ns_per_edge", median(build), "ns/edge", n)
	e.rep.perLayer("graph.snapshot_encode_ns_per_edge", median(encode), "ns/edge", n)
	e.rep.perLayer("graph.snapshot_decode_ns_per_edge", median(decode), "ns/edge", n)
	e.rep.perLayer("graph.snapshot_bytes_per_edge", float64(fileSize(snap))/m, "B/edge", 0)
	return nil
}

// ingestOnce runs one job and checks both graphs against the generated
// one's digest. It returns a failure reason, or "" on success. In the
// traced pass it also times a Builder over the parsed edges, so the
// parse share of ReadEdgeList can be separated from the build share.
func ingestOnce(e *env, text, snap string, want graphDigest, trace int64) (ingestJob, string) {
	var j ingestJob
	tr := e.tr
	root := tr.start("ingest.job", trace, 0)

	sp := tr.start("graph.ReadEdgeList", trace, root.id)
	f, err := os.Open(text)
	if err != nil {
		return j, "open edge list: " + err.Error()
	}
	g, err := graph.ReadEdgeList(f)
	_ = f.Close()
	if err != nil {
		return j, "parse: " + err.Error()
	}
	j.parse = sp.end(float64(g.NumEdges()), "edges")

	sp = tr.start("graph.WriteSnapshot", trace, root.id)
	if err := writeSnapshotFile(snap, g); err != nil {
		return j, "snapshot write: " + err.Error()
	}
	j.encode = sp.end(float64(g.NumEdges()), "edges")

	sp = tr.start("graph.ReadSnapshot", trace, root.id)
	f, err = os.Open(snap)
	if err != nil {
		return j, "open snapshot: " + err.Error()
	}
	back, err := graph.ReadSnapshot(f)
	_ = f.Close()
	if err != nil {
		return j, "snapshot read: " + err.Error()
	}
	j.decode = sp.end(float64(back.NumEdges()), "edges")
	j.total = root.end(1, "jobs")

	if tr.on.Load() {
		j.build = timeBuild(tr, g, trace, root.id)
	}
	if digestOf(g) != want {
		e.rep.wrongAnswer("ReadEdgeList built a graph that differs from the generated one")
		return j, "wrong answer"
	}
	if digestOf(back) != want || !sameWeightOrder(back, g) {
		e.rep.wrongAnswer("ReadSnapshot returned a graph that differs from the one written")
		return j, "wrong answer"
	}
	return j, ""
}

// timeBuild feeds g's edges to a fresh Builder, one shard per
// GOMAXPROCS as ReadEdgeList does, and times Build alone.
func timeBuild(tr *tracer, g *graph.Graph, trace, parent int64) time.Duration {
	edges := g.Edges()
	b := graph.NewBuilder(g.NumVertices())
	workers := runtime.GOMAXPROCS(0)
	per := (len(edges) + workers - 1) / workers
	for lo := 0; lo < len(edges); lo += per {
		b.NewShard().AddEdges(edges[lo:min(lo+per, len(edges))])
	}
	sp := tr.start("graph.Builder.Build", trace, parent)
	if _, err := b.Build(); err != nil {
		return 0
	}
	return sp.end(float64(len(edges)), "edges")
}

func writeEdgeListFile(path string, g *graph.Graph) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	if err := graph.WriteEdgeList(f, g); err != nil {
		_ = f.Close()
		return err
	}
	return f.Close()
}

func writeSnapshotFile(path string, g *graph.Graph) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	w := bufio.NewWriterSize(f, 1<<16)
	if err := graph.WriteSnapshot(w, g); err != nil {
		_ = f.Close()
		return err
	}
	if err := w.Flush(); err != nil {
		_ = f.Close()
		return err
	}
	return f.Close()
}
