package main

import (
	"context"
	"fmt"
	"net"
	"os"
	"path/filepath"
	"time"

	"graphabcd"
	"graphabcd/internal/cluster"
	"graphabcd/internal/cluster/tcp"
	"graphabcd/internal/graph"
)

// clusterAlgos is the cluster-2n rotation (tcp.DistConfig.Algo names).
// PageRank, the transport-heavy job, is three in five, so job_p50_s and
// job_p90_s both fall inside its distribution; with one job each, the
// median fell where the cc and sssp distributions overlap and moved by
// 30% between runs.
var clusterAlgos = []string{"pr", "cc", "pr", "sssp", "pr"}

// clusterJob is one run to quiescence of the two-node TCP cluster.
type clusterJob struct {
	alg   string
	total time.Duration
	res   *tcp.DistResult
}

// runCluster is the cluster-2n workload: tcp.Serve plus one tcp.Join in
// this process over real loopback sockets, one job at a time.
func runCluster(e *env) error {
	type state struct {
		g    *graph.Graph
		snap string
	}
	st, done, err := timedSetup(e, func(i int) (state, func(), error) {
		g, err := analog("LJ", e.sz.clusterShrink)
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
	sources := pickSources(st.g, e.rng(1), numSources)
	or := newOracle(st.g, sources)

	loop := func(d time.Duration) []clusterJob {
		var jobs []clusterJob
		start := time.Now()
		for k := 0; time.Since(start) < d; k++ {
			alg := clusterAlgos[k%len(clusterAlgos)]
			src := sources[(k/len(clusterAlgos))%len(sources)]
			j, err := clusterRun(e, st.snap, alg, src, int64(k+1))
			if err != nil {
				e.rep.attempt("cluster run: " + err.Error())
				continue
			}
			oracleAlg := alg
			if alg == "pr" {
				oracleAlg = "pagerank"
			}
			if bad := or.check(oracleAlg, src, nil, j.res.Float, j.res.Uint); bad != "" {
				e.rep.wrongAnswer(bad)
				e.rep.attempt("wrong answer")
				continue
			}
			e.rep.attempt("")
			jobs = append(jobs, j)
		}
		return jobs
	}
	times := func(jobs []clusterJob) []float64 {
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

	m := float64(st.g.NumEdges())
	var bytesSent, frames, batches, drops, reconnects, crc, wall float64
	for _, j := range traced {
		w := j.res.Wire
		bytesSent += float64(w.BytesSent)
		frames += float64(w.FramesSent)
		batches += float64(j.res.BatchesSent)
		drops += float64(w.Drops)
		reconnects += float64(w.Reconnects)
		crc += float64(w.CRCDrops)
		wall += j.res.WallTime.Seconds()
	}
	n := len(traced)
	rep := e.rep
	rep.perLayer("tcp.bytes_sent_per_E", ratio(bytesSent, m*float64(n)), "B/edge", n)
	rep.perLayer("tcp.batches_per_job", ratio(batches, float64(n)), "count", n)
	rep.perLayer("tcp.frames_per_batch", ratio(frames, batches), "ratio", n)
	rep.perLayer("tcp.queue_drops_per_batch", ratio(drops, batches), "ratio", n)
	rep.perLayer("tcp.reconnects", reconnects, "count", n)
	rep.perLayer("tcp.crc_drops", crc, "count", n)
	rep.perLayer("tcp.batches_per_s", ratio(batches, wall), "1/s", n)
	rep.perLayer("tcp.envelope_codec_ns_per_batch", envelopeCodecNS(ratio(bytesSent, frames)), "ns/batch", 0)
	return nil
}

// clusterRun serves one job on an ephemeral control port and joins it
// with a second node, both in this process, and waits for both.
func clusterRun(e *env, snap, alg string, src uint32, trace int64) (clusterJob, error) {
	j := clusterJob{alg: alg}
	ctx, cancel := context.WithTimeout(context.Background(), 120*time.Second)
	defer cancel()
	ctrl, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return j, err
	}
	root := e.tr.start("cluster.job", trace, 0)
	type served struct {
		res *tcp.DistResult
		err error
	}
	serveCh := make(chan served, 1)
	joinCh := make(chan error, 1)
	go func() {
		sp := e.tr.start("tcp.Serve", trace, root.id)
		res, err := tcp.Serve(ctx, ctrl, snap, tcp.DistConfig{
			Nodes: 2, Algo: alg, Source: src, WorkersPerNode: 1, BatchSize: 64, Epsilon: 1e-9,
		})
		var batches float64
		if res != nil {
			batches = float64(res.BatchesSent)
		}
		sp.end(batches, "batches")
		serveCh <- served{res, err}
	}()
	go func() {
		sp := e.tr.start("tcp.Join", trace, root.id)
		err := tcp.Join(ctx, ctrl.Addr().String(), tcp.Options{})
		sp.end(1, "nodes")
		joinCh <- err
	}()
	out := <-serveCh
	joinErr := <-joinCh
	_ = ctrl.Close()
	j.total = root.end(1, "jobs")
	if out.err != nil {
		return j, out.err
	}
	if joinErr != nil {
		return j, joinErr
	}
	j.res = out.res
	return j, nil
}

// envelopeCodecNS times cluster.AppendEnvelope plus DecodeEnvelope on a
// data batch whose wire size matches the run's mean frame, and returns the
// median ns per batch over several timed rounds.
func envelopeCodecNS(bytesPerFrame float64) float64 {
	const frameOverhead, hdr, perSlot = 8, 29, 20 // len+crc, envelope header, slot+block+word
	slots := int((bytesPerFrame - frameOverhead - hdr) / perSlot)
	slots = min(max(slots, 1), 4096)
	sl := make([]int64, slots)
	bl := make([]int32, slots)
	wd := make([]uint64, slots)
	for i := range sl {
		sl[i], bl[i], wd[i] = int64(i*7), int32(i/16), uint64(i)*0x9e3779b97f4a7c15
	}
	env := cluster.NewDataEnvelope(1, 42, time.Now(), sl, bl, wd)
	buf := make([]byte, 0, cluster.EnvelopeWireSize(env))
	const iters = 2000
	var rounds []float64
	for r := 0; r < 7; r++ {
		t0 := time.Now()
		for i := 0; i < iters; i++ {
			buf = cluster.AppendEnvelope(buf[:0], env)
			if _, err := cluster.DecodeEnvelope(buf); err != nil {
				return 0
			}
		}
		rounds = append(rounds, float64(time.Since(t0).Nanoseconds())/iters)
	}
	return median(rounds)
}
