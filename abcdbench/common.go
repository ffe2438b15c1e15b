package main

import "time"

// timedSetup builds a workload's inputs and state setupRepeats times and
// reports the median as setup_s; all but the last build are released at
// once. A traced run builds once, since it reports no setup_s. The
// returned func releases the kept state.
func timedSetup[T any](e *env, build func(i int) (T, func(), error)) (T, func(), error) {
	repeats := setupRepeats
	if e.trace {
		repeats = 1
	}
	var (
		st      T
		release = func() {}
		times   []float64
	)
	for i := 0; i < repeats; i++ {
		release()
		t0 := time.Now()
		s, rel, err := build(i)
		if err != nil {
			var zero T
			return zero, func() {}, err
		}
		times = append(times, time.Since(t0).Seconds())
		st, release = s, rel
	}
	if !e.trace {
		e.rep.e2e("setup_s", median(times), "s", len(times))
	}
	return st, release, nil
}

// reportJobs records the closed-loop end-to-end metrics from per-job
// wall times in seconds. Throughput is jobs over the summed job time, so
// the benchmark's own oracle checks between jobs are not charged to it.
func reportJobs(e *env, secs []float64) {
	var sum float64
	for _, s := range secs {
		sum += s
	}
	e.rep.e2e("job_p50_s", median(secs), "s", len(secs))
	e.rep.e2e("job_p90_s", quantile(secs, 0.9), "s", len(secs))
	e.rep.e2e("jobs_per_s", ratio(float64(len(secs)), sum), "1/s", len(secs))
}

// overhead reports the traced pass's median job time against the
// untraced pass's, in percent.
func overhead(e *env, plain, traced []float64) {
	e.rep.perLayer("trace.overhead_pct", (ratio(median(traced), median(plain))-1)*100, "%", len(traced))
}
