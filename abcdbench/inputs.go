package main

import (
	"bufio"
	"fmt"
	"hash/fnv"
	"io"
	"math"
	"math/rand/v2"
	"os"

	"graphabcd"
	"graphabcd/internal/bcd"
	"graphabcd/internal/checkpoint"
	"graphabcd/internal/gen"
	"graphabcd/internal/graph"
)

// sizes fixes every input size. fullSizes is the benchmark; tinySizes
// lets the self-test run every workload and oracle path in seconds.
type sizes struct {
	cliShrink     int // LJ analog; shrink 0 is 2^15 v, 14 e/v
	clusterShrink int // LJ analog
	serveShrink   int // WT analog
	ingestScale   int // R-MAT text edge list, ingestEF edges per vertex
	ingestEF      int
	serveRates    [3]float64
	coldLimit     float64 // serve-mix cold p99 limit (s) behind max_ok_rps
}

var fullSizes = sizes{
	cliShrink: 0, clusterShrink: 3, serveShrink: 0,
	ingestScale: 18, ingestEF: 4,
	serveRates: [3]float64{30, 45, 70},
	coldLimit:  0.25,
}

var tinySizes = sizes{
	cliShrink: 6, clusterShrink: 7, serveShrink: 7,
	ingestScale: 10, ingestEF: 4,
	serveRates: [3]float64{20, 40, 60},
	coldLimit:  1,
}

// rng returns the workload's seeded generator; stream separates the
// independent draws one run makes.
func (e *env) rng(stream uint64) *rand.Rand {
	return rand.New(rand.NewPCG(e.seed, stream^fnvString(e.workload)))
}

func fnvString(s string) uint64 {
	h := fnv.New64a()
	_, _ = io.WriteString(h, s)
	return h.Sum64()
}

// analog builds one of the catalog's Table-I analogs (internal/gen) with
// integer weights in [1, 64], so SSSP distances are exact sums and the
// oracle comparison is exact. The graph is the catalog's fixed one; the
// workload seed draws everything a run asks of it (sources, seeds,
// queried vertices), so runs on different seeds do the same kind of work
// on the same data.
func analog(name string, shrink int) (*graph.Graph, error) {
	d, err := gen.Lookup(name)
	if err != nil {
		return nil, err
	}
	return d.BuildSocial(shrink, true)
}

// seededRMAT builds the R-MAT graph the workload seed selects.
func (e *env) seededRMAT(scale, ef int) (*graph.Graph, error) {
	cfg := gen.DefaultRMAT(scale, ef, e.seed*0x9e3779b97f4a7c15^fnvString(e.workload))
	cfg.MaxWeight = 64
	return gen.RMAT(cfg)
}

// numSources is how many traversal sources (and PPR seed sets) a run
// draws; jobs cycle through them. A traversal's cost depends on how much
// of the graph its source reaches, so a run needs many distinct sources
// for its job percentiles not to depend on which few the seed drew.
const numSources = 64

// pickSources draws k distinct vertices with out-degree >= 1.
func pickSources(g *graph.Graph, r *rand.Rand, k int) []uint32 {
	n := g.NumVertices()
	seen := map[uint32]bool{}
	var out []uint32
	for tries := 0; len(out) < k && tries < 100*k+n; tries++ {
		v := uint32(r.IntN(n))
		if g.OutDegree(v) >= 1 && !seen[v] {
			seen[v] = true
			out = append(out, v)
		}
	}
	return out
}

// oracle holds the reference answers of one graph, computed once per
// run outside every timed region.
type oracle struct {
	g    *graph.Graph
	pr   []float64
	cc   []uint64
	sssp map[uint32][]float64
	bfs  map[uint32][]uint64
}

// prTolerance is the L1 distance allowed between an engine's PageRank and
// the power-iteration reference. Async runs stop once every update is
// below the 1e-9 activation threshold; the sub-threshold mass left
// pending leaves an L1 error of about 1.5e-3 on the 2^15-vertex LJ
// analog, while a wrong kernel or schedule is off by far more.
const prTolerance = 5e-3

// pprResidualTolerance bounds the L1 residual of a PPR answer (one Jacobi
// sweep of the fixed-point map), the check used in place of an oracle.
// The same pending sub-threshold mass leaves about 2.3e-4 on LJ.
const pprResidualTolerance = 1e-3

func newOracle(g *graph.Graph, sources []uint32) *oracle {
	o := &oracle{
		g:    g,
		pr:   bcd.RefPageRank(g, 0.85, 1e-13, 1000),
		cc:   bcd.RefCC(g),
		sssp: map[uint32][]float64{},
		bfs:  map[uint32][]uint64{},
	}
	for _, s := range sources {
		o.sssp[s] = bcd.RefSSSP(g, s)
		o.bfs[s] = bcd.RefBFS(g, s)
	}
	return o
}

// check compares one job's values against the reference. It returns ""
// when they agree.
func (o *oracle) check(alg string, src uint32, seeds []uint32, fl []float64, ui []uint64) string {
	n := o.g.NumVertices()
	switch alg {
	case "pagerank":
		if len(fl) != n {
			return fmt.Sprintf("pagerank: %d values for %d vertices", len(fl), n)
		}
		if d := l1(fl, o.pr); d > prTolerance {
			return fmt.Sprintf("pagerank: L1 distance %g to reference exceeds %g", d, prTolerance)
		}
	case "sssp":
		want := o.sssp[src]
		if len(fl) != len(want) {
			return fmt.Sprintf("sssp: %d values for %d vertices", len(fl), len(want))
		}
		for v := range want {
			if fl[v] != want[v] {
				return fmt.Sprintf("sssp from %d: dist[%d] = %g, reference %g", src, v, fl[v], want[v])
			}
		}
	case "bfs":
		want := o.bfs[src]
		if len(ui) != len(want) {
			return fmt.Sprintf("bfs: %d values for %d vertices", len(ui), len(want))
		}
		for v := range want {
			if ui[v] != want[v] {
				return fmt.Sprintf("bfs from %d: level[%d] = %d, reference %d", src, v, ui[v], want[v])
			}
		}
	case "cc":
		if len(ui) != len(o.cc) {
			return fmt.Sprintf("cc: %d values for %d vertices", len(ui), len(o.cc))
		}
		for v := range o.cc {
			if ui[v] != o.cc[v] {
				return fmt.Sprintf("cc: label[%d] = %d, reference %d", v, ui[v], o.cc[v])
			}
		}
	case "ppr":
		return checkPPR(o.g, seeds, fl)
	default:
		return "no oracle for " + alg
	}
	return ""
}

// checkPPR has no independent reference to compare with yet. It checks
// what any PPR vector must satisfy: values are non-negative, the mass is
// positive and at most 1 (dangling vertices leak mass, so it is not
// exactly 1), and one Jacobi sweep moves the vector by at most
// pprResidualTolerance in L1.
func checkPPR(g *graph.Graph, seeds []uint32, x []float64) string {
	if len(x) != g.NumVertices() {
		return fmt.Sprintf("ppr: %d values for %d vertices", len(x), g.NumVertices())
	}
	mass := 0.0
	for v, val := range x {
		if val < 0 || math.IsNaN(val) {
			return fmt.Sprintf("ppr: value[%d] = %g is negative", v, val)
		}
		mass += val
	}
	if mass <= 0 || mass > 1+1e-9 {
		return fmt.Sprintf("ppr: total mass %g outside (0, 1]", mass)
	}
	p, err := bcd.NewPPR(0.85, seeds)
	if err != nil {
		return err.Error()
	}
	if r := p.L1Residual(g, x); r > pprResidualTolerance {
		return fmt.Sprintf("ppr: L1 residual %g exceeds %g", r, pprResidualTolerance)
	}
	return ""
}

func l1(a, b []float64) float64 {
	d := 0.0
	for i := range a {
		d += math.Abs(a[i] - b[i])
	}
	return d
}

// writeValues writes a job's values the way the CLI's -values-out does:
// one value per line, floats at full round-trip precision, crash-atomic.
func writeValues(path string, res *graphabcd.JobResult) error {
	return checkpoint.AtomicWriteFile(path, func(out io.Writer) error {
		w := bufio.NewWriter(out)
		var buf []byte
		for _, v := range res.Float {
			buf = fmt.Appendf(buf[:0], "%.17g\n", v)
			_, _ = w.Write(buf)
		}
		for _, v := range res.Uint {
			buf = fmt.Appendf(buf[:0], "%d\n", v)
			_, _ = w.Write(buf)
		}
		return w.Flush()
	})
}

// graphDigest identifies a graph for the ingest oracle. layout hashes the
// CSC/CSR layout (offsets, sources, destinations, positions), which the
// builder makes deterministic. weights hashes the multiset of
// (destination, source, weight) triples: the text reader parses chunks in
// parallel, so parallel edges (same source and destination, different
// weights) that straddle a chunk boundary can come out in either order,
// and only their multiset is fixed.
type graphDigest struct{ layout, weights uint64 }

func digestOf(g *graph.Graph) graphDigest {
	h := uint64(14695981039346656037)
	mix := func(x uint64) {
		h ^= x
		h *= 1099511628211
	}
	n, m := g.NumVertices(), g.NumEdges()
	mix(uint64(n))
	mix(uint64(m))
	for v := 0; v <= n; v++ {
		mix(uint64(g.InOffset(v)))
		mix(uint64(g.OutOffset(v)))
	}
	for i := int64(0); i < int64(m); i++ {
		mix(uint64(g.InSrc(i)))
		mix(uint64(g.OutDst(i)))
		mix(uint64(g.OutPos(i)))
	}
	var w uint64
	for v := 0; v < n; v++ {
		for i := g.InOffset(v); i < g.InOffset(v+1); i++ {
			w += splitmix(splitmix(uint64(v)<<32|uint64(g.InSrc(i))) ^ uint64(math.Float32bits(g.InWeight(i))))
		}
	}
	return graphDigest{layout: h, weights: w}
}

// sameWeightOrder reports whether a and b (same layout) list identical
// weights in identical order.
func sameWeightOrder(a, b *graph.Graph) bool {
	for i := int64(0); i < int64(a.NumEdges()); i++ {
		if a.InWeight(i) != b.InWeight(i) {
			return false
		}
	}
	return true
}

// splitmix is the SplitMix64 finalizer.
func splitmix(x uint64) uint64 {
	x += 0x9e3779b97f4a7c15
	x = (x ^ x>>30) * 0xbf58476d1ce4e5b9
	x = (x ^ x>>27) * 0x94d049bb133111eb
	return x ^ x>>31
}

// fileSize returns the size of path, or 0 if it cannot be read.
func fileSize(path string) int64 {
	fi, err := os.Stat(path)
	if err != nil {
		return 0
	}
	return fi.Size()
}
