// Command abcdbench is the repository benchmark. It drives the public
// entry points of every layer from one process — the CLI path
// (graphabcd.Load, Runtime.Run, the values file), a two-node TCP cluster
// (tcp.Serve plus tcp.Join over loopback), the HTTP serving layer
// (serve.New(...).Handler() behind httptest) and ingestion
// (graph.ReadEdgeList, WriteSnapshot, ReadSnapshot) — times the calls, and
// checks every output against an oracle.
//
// Usage:
//
//	abcdbench --workload cli-lj --seed 1 --seconds 15 --trace 0
//
// With --trace 0 the last stdout line carries the end-to-end metrics of an
// untraced run; with --trace 1 it carries the per-layer metrics of a
// separate traced run. NOTES.md explains the workloads and metrics.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"strings"
	"time"
)

// setupRepeats is how many times a run builds its inputs and state; the
// median of the repeats is reported as setup_s.
const setupRepeats = 5

func main() {
	var (
		workload = flag.String("workload", "", "workload: "+strings.Join(workloadNames(), " | "))
		seed     = flag.Uint64("seed", 1, "workload seed; the same seed gives the same inputs")
		seconds  = flag.Float64("seconds", 25, "measured seconds per run")
		traceOn  = flag.Int("trace", 0, "1 runs the traced pass and reports per-layer metrics")
		outDir   = flag.String("out", ".bench_build", "directory for generated inputs, trace files and the results log")
		commit   = flag.String("commit", "unknown", "commit under test, recorded in the environment fingerprint")
	)
	flag.Parse()
	run, ok := workloads[*workload]
	if !ok {
		fmt.Fprintf(os.Stderr, "abcdbench: unknown workload %q (have %s)\n", *workload, strings.Join(workloadNames(), ", "))
		os.Exit(2)
	}
	if *seconds <= 0 || (*traceOn != 0 && *traceOn != 1) {
		fmt.Fprintln(os.Stderr, "abcdbench: --seconds must be positive and --trace 0 or 1")
		os.Exit(2)
	}
	e, err := newEnv(*workload, *seed, time.Duration(*seconds*float64(time.Second)), *traceOn == 1, *outDir, fullSizes)
	if err != nil {
		fmt.Fprintln(os.Stderr, "abcdbench:", err)
		os.Exit(1)
	}
	defer e.cleanup()
	fp := fingerprint(*commit, *workload, *seed, *traceOn == 1)
	printFingerprint(fp)

	if err := run(e); err != nil {
		fmt.Fprintln(os.Stderr, "abcdbench:", err)
		e.cleanup()
		os.Exit(1)
	}
	rep := e.rep
	if !e.trace {
		rep.e2e("rss_peak_mb", peakRSSMB(), "MB", 0)
	}
	out := rep.result(e.trace)
	rep.print(os.Stdout)
	if err := e.finish(fp, out); err != nil {
		fmt.Fprintln(os.Stderr, "abcdbench:", err)
	}
	line, err := json.Marshal(out)
	if err != nil {
		fmt.Fprintln(os.Stderr, "abcdbench:", err)
		e.cleanup()
		os.Exit(1)
	}
	fmt.Println(string(line))
}

// workloads maps each workload to the function that runs it. NOTES.md
// says why each exists and which layers dominate it.
var workloads = map[string]func(e *env) error{
	"cli-lj":      runCLI,
	"cluster-2n":  runCluster,
	"serve-mix":   runServe,
	"ingest-rmat": runIngest,
}

func workloadNames() []string {
	names := make([]string, 0, len(workloads))
	for n := range workloads {
		names = append(names, n)
	}
	sort.Strings(names)
	return names
}

// env is one run's shared state: the clock budget, the seeded inputs'
// working directory, the span recorder and the report being filled.
type env struct {
	workload string
	seed     uint64
	seconds  time.Duration
	trace    bool
	sz       sizes
	outDir   string
	work     string // generated inputs of this run, removed at exit
	tr       *tracer
	rep      *report
}

func newEnv(workload string, seed uint64, seconds time.Duration, trace bool, outDir string, sz sizes) (*env, error) {
	if err := os.MkdirAll(outDir, 0o755); err != nil {
		return nil, err
	}
	work, err := os.MkdirTemp(outDir, "work-"+workload+"-")
	if err != nil {
		return nil, err
	}
	return &env{
		workload: workload, seed: seed, seconds: seconds, trace: trace, sz: sz,
		outDir: outDir, work: work, tr: newTracer(), rep: newReport(),
	}, nil
}

func (e *env) cleanup() { _ = os.RemoveAll(e.work) }

// finish appends the run's result and fingerprint to the results log and,
// for a traced run, writes the recorded spans.
func (e *env) finish(fp map[string]any, out result) error {
	rec := map[string]any{"env": fp, "result": out, "samples": e.rep.samples}
	line, err := json.Marshal(rec)
	if err != nil {
		return err
	}
	f, err := os.OpenFile(filepath.Join(e.outDir, "results.jsonl"), os.O_APPEND|os.O_CREATE|os.O_WRONLY, 0o644)
	if err != nil {
		return err
	}
	if _, err := f.Write(append(line, '\n')); err != nil {
		_ = f.Close()
		return err
	}
	if err := f.Close(); err != nil {
		return err
	}
	if !e.trace {
		return nil
	}
	path := filepath.Join(e.outDir, fmt.Sprintf("trace-%s-seed%d.json", e.workload, e.seed))
	return e.tr.write(path)
}

// fingerprint identifies the machine and inputs a result came from.
func fingerprint(commit, workload string, seed uint64, trace bool) map[string]any {
	return map[string]any{
		"commit":     commit,
		"go":         runtime.Version(),
		"gomaxprocs": runtime.GOMAXPROCS(0),
		"nproc":      runtime.NumCPU(),
		"cpu":        cpuModel(),
		"workload":   workload,
		"seed":       seed,
		"trace":      trace,
		"time":       time.Now().UTC().Format(time.RFC3339),
	}
}

func printFingerprint(fp map[string]any) {
	keys := make([]string, 0, len(fp))
	for k := range fp {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	var b strings.Builder
	b.WriteString("# env")
	for _, k := range keys {
		_, _ = fmt.Fprintf(&b, " %s=%v", k, fp[k])
	}
	fmt.Println(b.String())
}

func cpuModel() string {
	raw, err := os.ReadFile("/proc/cpuinfo")
	if err != nil {
		return "unknown"
	}
	for _, line := range strings.Split(string(raw), "\n") {
		if k, v, ok := strings.Cut(line, ":"); ok && strings.TrimSpace(k) == "model name" {
			return strings.TrimSpace(v)
		}
	}
	return "unknown"
}

// peakRSSMB reads the process's resident-set high-water mark (VmHWM).
func peakRSSMB() float64 {
	raw, err := os.ReadFile("/proc/self/status")
	if err != nil {
		return 0
	}
	for _, line := range strings.Split(string(raw), "\n") {
		if rest, ok := strings.CutPrefix(line, "VmHWM:"); ok {
			var kb float64
			if _, err := fmt.Sscanf(strings.TrimSpace(rest), "%f kB", &kb); err == nil {
				return kb / 1024
			}
		}
	}
	return 0
}
