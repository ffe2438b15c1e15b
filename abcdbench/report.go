package main

import (
	"fmt"
	"io"
	"math"
	"sort"
	"sync"
	"time"
)

// metric is one reported number with its unit.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is the last stdout line of a run.
type result struct {
	Correct   bool              `json:"correct"`
	Attempted int64             `json:"attempted"`
	Failed    int64             `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

// report collects one run's outcome: attempts, failures, oracle verdicts,
// and the metrics of both kinds with their sample counts. Workers of the
// serving load generator record into it concurrently.
type report struct {
	mu        sync.Mutex
	attempted int64
	failed    int64
	wrong     []string // oracle mismatches: the run's outputs are not correct
	failures  map[string]int64
	endToEnd  map[string]metric
	layer     map[string]metric
	samples   map[string]int
}

func newReport() *report {
	return &report{
		failures: map[string]int64{},
		endToEnd: map[string]metric{},
		layer:    map[string]metric{},
		samples:  map[string]int{},
	}
}

// attempt counts one operation; a non-empty reason marks it failed.
func (r *report) attempt(failReason string) {
	r.mu.Lock()
	defer r.mu.Unlock()
	r.attempted++
	if failReason != "" {
		r.failed++
		r.failures[failReason]++
	}
}

// wrongAnswer records an output that disagrees with its oracle; the
// caller also counts the operation as failed through attempt.
func (r *report) wrongAnswer(what string) {
	r.mu.Lock()
	defer r.mu.Unlock()
	if len(r.wrong) < 20 {
		r.wrong = append(r.wrong, what)
	}
}

func (r *report) e2e(name string, v float64, unit string, n int) {
	r.mu.Lock()
	defer r.mu.Unlock()
	r.endToEnd[name] = metric{Value: v, Unit: unit}
	if n > 0 {
		r.samples[name] = n
	}
}

func (r *report) perLayer(name string, v float64, unit string, n int) {
	r.mu.Lock()
	defer r.mu.Unlock()
	if math.IsNaN(v) || math.IsInf(v, 0) {
		v = 0
	}
	r.layer[name] = metric{Value: v, Unit: unit}
	if n > 0 {
		r.samples[name] = n
	}
}

// result fills in every per-layer metric the workload did not exercise
// with 0 (see NOTES.md) and assembles the final line.
func (r *report) result(trace bool) result {
	r.mu.Lock()
	defer r.mu.Unlock()
	out := result{Correct: len(r.wrong) == 0, Attempted: r.attempted, Failed: r.failed}
	if out.Attempted == 0 {
		out.Attempted = 1
		out.Failed = 1
		out.Correct = false
	}
	if trace {
		for _, m := range layerMetrics {
			if _, ok := r.layer[m.name]; !ok {
				r.layer[m.name] = metric{Value: 0, Unit: m.unit}
			}
		}
		r.layer["failed_ratio"] = metric{Value: float64(out.Failed) / float64(out.Attempted), Unit: "ratio"}
		out.Metrics = r.layer
	} else {
		out.Metrics = r.endToEnd
	}
	return out
}

// print writes the human-readable block: every metric with its unit and
// sample count, the failure breakdown and the correctness verdict.
func (r *report) print(w io.Writer) {
	r.mu.Lock()
	defer r.mu.Unlock()
	for _, set := range []map[string]metric{r.endToEnd, r.layer} {
		names := make([]string, 0, len(set))
		for n := range set {
			names = append(names, n)
		}
		sort.Strings(names)
		for _, n := range names {
			m := set[n]
			if c, ok := r.samples[n]; ok {
				_, _ = fmt.Fprintf(w, "%-40s %14.6g %-8s n=%d\n", n, m.Value, m.Unit, c)
			} else {
				_, _ = fmt.Fprintf(w, "%-40s %14.6g %s\n", n, m.Value, m.Unit)
			}
		}
	}
	reasons := make([]string, 0, len(r.failures))
	for k := range r.failures {
		reasons = append(reasons, k)
	}
	sort.Strings(reasons)
	for _, k := range reasons {
		_, _ = fmt.Fprintf(w, "# failed %d: %s\n", r.failures[k], k)
	}
	verdict := "correct"
	if len(r.wrong) > 0 {
		verdict = "WRONG"
	}
	_, _ = fmt.Fprintf(w, "# verdict %s (attempted %d, failed %d)\n", verdict, r.attempted, r.failed)
	for _, s := range r.wrong {
		_, _ = fmt.Fprintf(w, "# wrong: %s\n", s)
	}
}

// layerMetric names one metric and its unit.
type layerMetric struct{ name, unit string }

// endToEndMetrics is what every workload reports from its untraced run;
// it matches BENCHMARK.json's end_to_end section.
var endToEndMetrics = []layerMetric{
	{"setup_s", "s"},
	{"job_p50_s", "s"},
	{"job_p90_s", "s"},
	{"jobs_per_s", "1/s"},
	{"rss_peak_mb", "MB"},
}

// layerMetrics is what every workload reports from its traced run; it
// matches BENCHMARK.json's per_layer section.

var layerMetrics = []layerMetric{
	{"graph.parse_ns_per_edge", "ns/edge"},
	{"graph.build_ns_per_edge", "ns/edge"},
	{"graph.snapshot_encode_ns_per_edge", "ns/edge"},
	{"graph.snapshot_decode_ns_per_edge", "ns/edge"},
	{"graph.snapshot_bytes_per_edge", "B/edge"},
	{"core.replay_ns_per_edge.pagerank", "ns/edge"},
	{"core.replay_ns_per_edge.cc", "ns/edge"},
	{"core.replay_ns_per_edge.sssp", "ns/edge"},
	{"core.live_ns_per_edge", "ns/edge"},
	{"core.gather_ns_per_edge", "ns/edge"},
	{"core.scatter_ns_per_edge", "ns/edge"},
	{"bcd.edges_per_E.pagerank", "ratio"},
	{"bcd.edges_per_E.sssp", "ratio"},
	{"bcd.edges_per_E.cc", "ratio"},
	{"bcd.edges_per_E.bfs", "ratio"},
	{"bcd.edges_per_E.ppr", "ratio"},
	{"bcd.scatter_writes_per_edge", "ratio"},
	{"bcd.trivial_job_share", "ratio"},
	{"runtime.dispatch_s", "s"},
	{"cli.values_write_s", "s"},
	{"tcp.bytes_sent_per_E", "B/edge"},
	{"tcp.batches_per_job", "count"},
	{"tcp.frames_per_batch", "ratio"},
	{"tcp.queue_drops_per_batch", "ratio"},
	{"tcp.reconnects", "count"},
	{"tcp.crc_drops", "count"},
	{"tcp.batches_per_s", "1/s"},
	{"tcp.envelope_codec_ns_per_batch", "ns/batch"},
	{"serve.submit_s", "s"},
	{"serve.queue_wait_s", "s"},
	{"serve.run_s", "s"},
	{"serve.encode_s", "s"},
	{"serve.response_bytes_per_vertex", "B/vertex"},
	{"serve.cache_hit_ratio", "ratio"},
	{"serve.reject_ratio", "ratio"},
	{"serve.journal_bytes", "B"},
	{"checkpoint.dir_bytes", "B"},
	{"serve.cold_p99_s", "s"},
	{"serve.hit_p50_s", "s"},
	{"serve.hit_p99_s", "s"},
	{"serve.query_p50_s", "s"},
	{"serve.query_p99_s", "s"},
	{"serve.max_ok_rps", "1/s"},
	{"loadgen.lag_p99_s", "s"},
	{"trace.overhead_pct", "%"},
	{"failed_ratio", "ratio"},
}

// quantile returns the q-quantile of xs by linear interpolation between
// order statistics (xs is not modified). It returns 0 for no samples.
func quantile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	pos := q * float64(len(s)-1)
	lo := int(math.Floor(pos))
	hi := int(math.Ceil(pos))
	return s[lo] + (s[hi]-s[lo])*(pos-float64(lo))
}

func median(xs []float64) float64 { return quantile(xs, 0.5) }

// durations is a concurrency-safe sample list of seconds.
type durations struct {
	mu sync.Mutex
	s  []float64
}

func (d *durations) add(t time.Duration) {
	d.mu.Lock()
	d.s = append(d.s, t.Seconds())
	d.mu.Unlock()
}

func (d *durations) values() []float64 {
	d.mu.Lock()
	defer d.mu.Unlock()
	return append([]float64(nil), d.s...)
}

// ratio returns num/den, or 0 when den is 0.
func ratio(num, den float64) float64 {
	if den == 0 {
		return 0
	}
	return num / den
}
