package tcp_test

import (
	"math"
	"path/filepath"
	"testing"

	"graphabcd/internal/bcd"
	"graphabcd/internal/cluster/tcp"
	"graphabcd/internal/gen"
	"graphabcd/internal/graph"
	"graphabcd/internal/telemetry"
)

// TestDistDefaultTuningNoRetrySpiral runs a two-node loopback cluster at
// the default RetryBase and MaxUnacked — what the CLI and the benchmark
// run — on the LJ analog at shrink 3. With a fixed 2ms retry floor and a
// 1024-batch window the queues alone outlasted the floor, and the run
// retransmitted more batches than it created. The measured RTO and send
// window must keep retransmissions a small fraction of the batches sent,
// and the run must still reach the PageRank fixed point.
func TestDistDefaultTuningNoRetrySpiral(t *testing.T) {
	d, err := gen.Lookup("LJ")
	if err != nil {
		t.Fatal(err)
	}
	g, err := d.BuildSocial(3, true)
	if err != nil {
		t.Fatal(err)
	}
	snap := filepath.Join(t.TempDir(), "lj.gabs")
	if err := graph.SaveFormat(snap, g, graph.FormatSnapshot); err != nil {
		t.Fatal(err)
	}
	cfg := tcp.DistConfig{
		Nodes:          2,
		Algo:           "pr",
		WorkersPerNode: 1,
		BatchSize:      64,
		Epsilon:        1e-12,
		Telemetry:      telemetry.New(telemetry.Options{}),
		Cluster:        telemetry.NewClusterStats(),
	}
	res := runDistLoopback(t, snap, cfg)
	want := bcd.RefPageRank(g, 0.85, 1e-13, 1000)
	for v := range want {
		if diff := math.Abs(res.Float[v] - want[v]); diff > 1e-7 {
			t.Fatalf("rank[%d] off by %g", v, diff)
		}
	}
	total := cfg.Cluster.Total()
	sent := total.Counters[telemetry.CtrBatchesSent]
	retried := total.Counters[telemetry.CtrBatchesRetried]
	t.Logf("batches sent %d, retried %d", sent, retried)
	if sent == 0 {
		t.Fatal("two nodes converged without exchanging a batch")
	}
	if ratio := float64(retried) / float64(sent); ratio > 0.05 {
		t.Fatalf("retransmitted %d of %d batches (%.2f), want at most 5%%: retry spiral at default tuning", retried, sent, ratio)
	}
	// The coordinator's registry exposes the measured controls.
	gauges := cfg.Telemetry.Snapshot().Gauges
	if w := gauges["send_window_batches"]; w < 4 || w > 1024 {
		t.Errorf("send_window_batches = %g, want within [4, 1024]", w)
	}
	if gauges["rtt_smoothed_seconds"] <= 0 {
		t.Errorf("rtt_smoothed_seconds = %g, want a measured round trip", gauges["rtt_smoothed_seconds"])
	}
	if rto := gauges["rto_seconds"]; rto < 0.002 {
		t.Errorf("rto_seconds = %g, want at least the 2ms floor", rto)
	}
}
