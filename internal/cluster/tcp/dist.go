// The -listen/-join distributed runtime: Serve runs the coordinator
// (node 0) against a plain GABS snapshot file and Join runs one joiner
// process. Unlike cluster.Run, which simulates every node inside one
// process, each process here hosts exactly one node: it receives only
// its own blocks' slices of the snapshot's edge sections (positioned
// reads at SnapshotSectionLayout offsets — a joiner never sees the rest
// of the graph's edges), runs the same fused gather-apply-scatter chain
// over its owned blocks, and exchanges state-based update batches with
// its peers over the TCP transport under the engine's at-least-once
// retry/stamp discipline. The coordinator detects global quiescence
// with a two-round probe over the control connections and collects the
// converged values.
package tcp

import (
	"context"
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"math"
	"net"
	"os"
	"sync"
	"sync/atomic"
	"time"

	"graphabcd/internal/bcd"
	"graphabcd/internal/checkpoint"
	"graphabcd/internal/cluster"
	"graphabcd/internal/graph"
	"graphabcd/internal/obslog"
	"graphabcd/internal/sched"
	"graphabcd/internal/telemetry"
	"graphabcd/internal/word"
)

// DistConfig tunes a distributed run. Only Nodes and Algo are required.
type DistConfig struct {
	// Nodes is the total node count: one coordinator plus Nodes-1
	// joiners. The coordinator blocks until every joiner has arrived.
	Nodes int
	// Algo is the algorithm name: pr | sssp | bfs | cc.
	Algo string
	// Source is the source vertex for sssp/bfs.
	Source uint32
	// BlockSize, WorkersPerNode, BatchSize, Epsilon, MaxUnacked,
	// RetryBase, and RetryDeadline mean exactly what they mean in
	// cluster.Config; zero values take the same defaults. In particular
	// RetryBase is only the floor of each node's measured retransmission
	// timeout and MaxUnacked only the cap of its measured send window
	// (cluster.Flow); each node's send_window_batches,
	// rtt_smoothed_seconds and rto_seconds gauges show the values in use.
	BlockSize      int
	WorkersPerNode int
	BatchSize      int
	Epsilon        float64
	MaxUnacked     int
	RetryBase      time.Duration
	RetryDeadline  time.Duration
	// ProbeEvery is the coordinator's quiescence probe period (default
	// 2ms). Termination needs two consecutive all-quiet rounds, so it
	// bounds the detection latency at roughly twice this.
	ProbeEvery time.Duration
	// CheckpointDir enables cluster-wide fuzzy checkpoints (DESIGN.md
	// §12): the coordinator periodically has every node write its owned
	// state into this directory and commits a manifest once all nodes
	// ack. The path must resolve to the same shared filesystem on every
	// node — each node writes its own state file there, and a resuming
	// node reads all of them.
	CheckpointDir string
	// CheckpointInterval is the coordinator's checkpoint period (default
	// 1s when CheckpointDir is set).
	CheckpointInterval time.Duration
	// RunID names the checkpoint run; empty derives a stable id from the
	// algorithm and the identity triple, so re-serving the same snapshot
	// with the same shape overwrites the same run.
	RunID string
	// Resume restarts the whole cluster from a committed checkpoint: a
	// run id, or "latest" for the newest committed manifest in
	// CheckpointDir. The manifest's identity triple and node count must
	// match this run exactly.
	Resume string
	// Transport tunes the coordinator's data-plane sockets.
	Transport Options
	// Telemetry, when non-nil, receives the wire gauges.
	Telemetry *telemetry.Registry
	// Cluster, when non-nil, receives the merged cluster telemetry: the
	// coordinator interleaves fStats rounds with its probe rounds and
	// folds every node's shipped delta into this snapshot (DESIGN.md
	// §13).
	Cluster *telemetry.ClusterStats
	// StatsEvery is the coordinator's telemetry aggregation period
	// (default 500ms when Cluster is set). A final round always runs
	// before termination, so the merged snapshot is complete even for
	// runs shorter than one period.
	StatsEvery time.Duration
	// Health, when non-nil, is driven through the run's readiness
	// transitions: ready once the node has joined and started, not-ready
	// while a checkpoint resume rewrites state, not-ready again at
	// shutdown.
	Health *telemetry.Health
}

func (c DistConfig) probeEvery() time.Duration {
	if c.ProbeEvery <= 0 {
		return 2 * time.Millisecond
	}
	return c.ProbeEvery
}

func (c DistConfig) checkpointInterval() time.Duration {
	if c.CheckpointInterval <= 0 {
		return time.Second
	}
	return c.CheckpointInterval
}

func (c DistConfig) transportOptions() Options {
	o := c.Transport
	if o.Telemetry == nil {
		o.Telemetry = c.Telemetry
	}
	if o.Cluster == nil {
		o.Cluster = c.Cluster
	}
	if o.StatsEvery <= 0 {
		o.StatsEvery = c.StatsEvery
	}
	if o.Health == nil {
		o.Health = c.Health
	}
	return o
}

// DistResult is a completed distributed run. Exactly one of Float/Uint
// is populated, matching the algorithm's value type.
type DistResult struct {
	Algo  string
	Float []float64 // pr, sssp
	Uint  []uint64  // bfs, cc
	// BatchesSent totals the whole cluster's data batches (from the
	// final probe round).
	BatchesSent int64
	WallTime    time.Duration
	// Wire is the coordinator's own transport counter snapshot at run
	// end. Per-node wire stats for the whole cluster live in the
	// DistConfig.Cluster snapshot when aggregation is enabled.
	Wire WireStats
}

// Serve runs the coordinator: it accepts cfg.Nodes-1 joiners on ctrl,
// distributes to each its blocks' snapshot sections read positioned out
// of the plain snapshot at snapshotPath, participates as node 0, probes
// for global quiescence, and returns the collected values.
func Serve(ctx context.Context, ctrl net.Listener, snapshotPath string, cfg DistConfig) (*DistResult, error) {
	start := time.Now()
	if cfg.Nodes < 1 || cfg.Nodes > maxDistNodes {
		return nil, fmt.Errorf("tcp: serve needs Nodes in [1, %d], got %d", maxDistNodes, cfg.Nodes)
	}
	algo, err := algoCode(cfg.Algo)
	if err != nil {
		return nil, err
	}
	snap, err := openSnapshotSections(snapshotPath)
	if err != nil {
		return nil, err
	}
	defer snap.close()

	ccfg := cluster.Config{
		Nodes:          cfg.Nodes,
		BlockSize:      cfg.BlockSize,
		WorkersPerNode: cfg.WorkersPerNode,
		Epsilon:        cfg.Epsilon,
		BatchSize:      cfg.BatchSize,
		RetryBase:      cfg.RetryBase,
		RetryDeadline:  cfg.RetryDeadline,
		MaxUnacked:     cfg.MaxUnacked,
	}
	if ccfg.BlockSize == 0 {
		ccfg.BlockSize = max(16, snap.n/256)
	}
	if ccfg.WorkersPerNode == 0 {
		ccfg.WorkersPerNode = 2
	}
	if ccfg.BatchSize == 0 {
		ccfg.BatchSize = 64
	}
	if err := ccfg.Validate(); err != nil {
		return nil, err
	}
	plan, err := resolveCheckpointPlan(cfg, snap, ccfg.BlockSize)
	if err != nil {
		return nil, err
	}

	// Phase 1: collect joiners. Accept deadlines keep the wait
	// responsive to cancellation.
	joiners := make([]*ctrlConn, 0, cfg.Nodes-1)
	defer func() {
		for _, j := range joiners {
			_ = j.c.Close()
		}
	}()
	dataAddrs := make([]string, cfg.Nodes)
	for len(joiners) < cfg.Nodes-1 {
		if d, ok := ctrl.(*net.TCPListener); ok {
			_ = d.SetDeadline(time.Now().Add(200 * time.Millisecond))
		}
		c, err := ctrl.Accept()
		if err != nil {
			if ne, ok := err.(net.Error); ok && ne.Timeout() {
				if ctx.Err() != nil {
					return nil, ctx.Err()
				}
				continue
			}
			return nil, fmt.Errorf("tcp: waiting for joiner %d/%d: %w", len(joiners)+1, cfg.Nodes-1, err)
		}
		cc := newCtrlConn(c)
		body, err := cc.expect(fJoin)
		if err != nil {
			_ = c.Close()
			return nil, fmt.Errorf("tcp: joiner handshake: %w", err)
		}
		addr := string(body[1:])
		if len(addr) == 0 || len(addr) > maxCtrlAddr {
			_ = c.Close()
			return nil, fmt.Errorf("tcp: joiner advertised %d-byte data address", len(addr))
		}
		joiners = append(joiners, cc)
		dataAddrs[len(joiners)] = addr
		obslog.L().Info("joiner accepted",
			"event", "cluster.join", "node", len(joiners), "dataAddr", addr,
			"joined", len(joiners), "want", cfg.Nodes-1)
	}

	// Phase 2: the coordinator's own data listener, on the same host the
	// control listener is bound to so joiners can reach it.
	dataLn, selfAddr, err := listenSameHost(ctrl.Addr())
	if err != nil {
		return nil, err
	}
	dataAddrs[0] = selfAddr

	// Phase 3: assignment and section distribution.
	assign := distAssign{
		nodes:          cfg.Nodes,
		n:              snap.n,
		m:              snap.m,
		blockSize:      ccfg.BlockSize,
		workersPerNode: ccfg.WorkersPerNode,
		batchSize:      ccfg.BatchSize,
		maxUnacked:     cfg.MaxUnacked,
		algo:           algo,
		source:         cfg.Source,
		epsilon:        cfg.Epsilon,
		retryBase:      cfg.RetryBase,
		retryDeadline:  cfg.RetryDeadline,
		ckptDir:        plan.dir,
		ckptRunID:      plan.runID,
		ckptInterval:   plan.interval,
		resumeEpoch:    plan.resumeEpoch,
		seqBase:        plan.seqBase,
		addrs:          dataAddrs,
	}
	fail := func(err error) (*DistResult, error) {
		for _, j := range joiners {
			j.sendError(err)
		}
		_ = dataLn.Close()
		return nil, err
	}
	for i, j := range joiners {
		a := assign
		a.node = i + 1
		if err := j.write(appendAssign(newFrame(fAssign), a)); err != nil {
			return fail(fmt.Errorf("tcp: assigning node %d: %w", i+1, err))
		}
		if err := snap.sendSections(j, assign, i+1); err != nil {
			return fail(fmt.Errorf("tcp: sections for node %d: %w", i+1, err))
		}
	}
	selfAssign := assign
	selfAssign.node = 0
	g, err := snap.ownedGraph(selfAssign)
	if err != nil {
		return fail(err)
	}
	for i, j := range joiners {
		if _, err := j.expect(fReady); err != nil {
			return fail(fmt.Errorf("tcp: node %d never became ready: %w", i+1, err))
		}
	}

	// Phase 4: run. The coordinator is node 0 of the same data plane.
	listeners := make([]net.Listener, cfg.Nodes)
	listeners[0] = dataLn
	tr := New(listeners, dataAddrs, cfg.transportOptions())
	for _, j := range joiners {
		if err := j.write(newFrame(fStart)); err != nil {
			return fail(fmt.Errorf("tcp: start: %w", err))
		}
	}
	obslog.L().Info("cluster assembled, starting run",
		"event", "cluster.start", "nodes", cfg.Nodes, "algo", cfg.Algo,
		"vertices", snap.n, "edges", snap.m)
	res, err := runDist(ctx, g, selfAssign, tr, joiners, nil, cfg.probeEvery(), start)
	if err != nil {
		return fail(err)
	}
	return res, nil
}

// Join runs one joiner process: dial the coordinator, receive an
// assignment and this node's graph sections, participate until the
// coordinator declares quiescence, and ship the owned values back. It
// returns when the run completes (the coordinator holds the results).
func Join(ctx context.Context, coordAddr string, opts Options) error {
	c, err := (&net.Dialer{Timeout: 10 * time.Second}).DialContext(ctx, "tcp", coordAddr)
	if err != nil {
		return fmt.Errorf("tcp: joining %s: %w", coordAddr, err)
	}
	cc := newCtrlConn(c)
	defer func() { _ = c.Close() }()

	// The data listener binds the same interface the control connection
	// runs over, so the advertised address is reachable by every peer
	// that can reach the coordinator.
	dataLn, dataAddr, err := listenSameHost(c.LocalAddr())
	if err != nil {
		return err
	}
	join := newFrame(fJoin)
	join = append(join, dataAddr...)
	if err := cc.write(join); err != nil {
		_ = dataLn.Close()
		return fmt.Errorf("tcp: join handshake: %w", err)
	}

	body, err := cc.expect(fAssign)
	if err != nil {
		_ = dataLn.Close()
		return fmt.Errorf("tcp: waiting for assignment: %w", err)
	}
	assign, err := decodeAssign(body[1:])
	if err != nil {
		_ = dataLn.Close()
		cc.sendError(err)
		return err
	}
	obslog.L().Info("assignment received",
		"event", "cluster.assign", "node", assign.node, "nodes", assign.nodes,
		"vertices", assign.n, "edges", assign.m)
	g, err := receiveSections(cc, assign)
	if err != nil {
		_ = dataLn.Close()
		cc.sendError(err)
		return err
	}
	if err := cc.write(newFrame(fReady)); err != nil {
		_ = dataLn.Close()
		return err
	}
	if _, err := cc.expect(fStart); err != nil {
		_ = dataLn.Close()
		return fmt.Errorf("tcp: waiting for start: %w", err)
	}

	listeners := make([]net.Listener, assign.nodes)
	listeners[assign.node] = dataLn
	tr := New(listeners, assign.addrs, opts)
	_, err = runDist(ctx, g, assign, tr, nil, cc, 0, time.Now())
	return err
}

// ckptPlan is the coordinator's resolved checkpoint/resume decision,
// broadcast to every node through the assignment.
type ckptPlan struct {
	dir         string
	runID       string
	interval    time.Duration
	resumeEpoch uint64
	seqBase     uint64
}

// resolveCheckpointPlan turns the serve config into the cluster's
// checkpoint plan, validating a requested resume against the snapshot
// before any joiner is assigned: the manifest's identity triple
// (program, graph digest, config hash) and node count must match this
// run exactly, and every node's state file of the committed epoch must
// decode. The files' maximum envelope sequence/stamp seeds seqBase so
// no post-resume envelope id ever loses a staleness race against a
// restored write stamp.
func resolveCheckpointPlan(cfg DistConfig, snap *snapshotSections, blockSize int) (ckptPlan, error) {
	var p ckptPlan
	if cfg.CheckpointDir == "" {
		if cfg.Resume != "" {
			return p, errors.New("tcp: Resume needs CheckpointDir")
		}
		if cfg.RunID != "" {
			return p, errors.New("tcp: RunID needs CheckpointDir")
		}
		return p, nil
	}
	code, err := algoCode(cfg.Algo)
	if err != nil {
		return p, err
	}
	program := algoName(code)
	words, err := algoWords(code)
	if err != nil {
		return p, err
	}
	nb := int64((snap.n + blockSize - 1) / blockSize)
	digest := checkpoint.DigestOffsets(int64(snap.n), int64(snap.m), snap.inOff, snap.outOff)
	confHash := checkpoint.ConfigHash(program, int64(snap.n), nb, words, cfg.Nodes)
	p.dir = cfg.CheckpointDir
	p.interval = cfg.checkpointInterval()
	p.runID = cfg.RunID
	if p.runID == "" {
		p.runID = fmt.Sprintf("%s-%.8s%.8s", program, digest, confHash)
	}
	if !checkpoint.ValidRunID(p.runID) {
		return p, fmt.Errorf("tcp: checkpoint run id %q invalid (want [A-Za-z0-9._-], no leading dot)", p.runID)
	}
	if cfg.Resume == "" {
		return p, nil
	}
	store, err := checkpoint.NewDirStore(cfg.CheckpointDir)
	if err != nil {
		return p, err
	}
	var m *checkpoint.Manifest
	if cfg.Resume == "latest" {
		m, err = store.Latest()
	} else {
		m, err = store.Load(cfg.Resume)
	}
	if err != nil {
		return p, err
	}
	switch {
	case m.Program != program:
		return p, fmt.Errorf("tcp: checkpoint %s is a %s run, this cluster runs %s (program mismatch)", m.RunID, m.Program, program)
	case m.Nodes != cfg.Nodes:
		return p, fmt.Errorf("tcp: checkpoint %s was written by %d nodes, this cluster has %d", m.RunID, m.Nodes, cfg.Nodes)
	case m.NumVertices != int64(snap.n) || m.NumBlocks != nb:
		return p, fmt.Errorf("tcp: checkpoint %s shape %dx%d does not match this run (%dx%d)", m.RunID, m.NumVertices, m.NumBlocks, snap.n, nb)
	case m.GraphDigest != digest:
		return p, fmt.Errorf("tcp: checkpoint %s graph digest %s does not match this snapshot (%s)", m.RunID, m.GraphDigest, digest)
	case m.ConfigHash != confHash:
		return p, fmt.Errorf("tcp: checkpoint %s config hash %s does not match this run (%s)", m.RunID, m.ConfigHash, confHash)
	}
	p.runID = m.RunID
	p.resumeEpoch = m.Epoch
	for node := 0; node < m.Nodes; node++ {
		rc, err := store.ReadState(m.RunID, m.Epoch, node)
		if err != nil {
			return p, err
		}
		st, err := checkpoint.Decode(rc)
		_ = rc.Close()
		if err != nil {
			return p, fmt.Errorf("tcp: resume epoch %d node %d: %w", m.Epoch, node, err)
		}
		hi := st.Counters.Seq
		for _, s := range st.Stamps {
			if s > hi {
				hi = s
			}
		}
		// A fuzzy capture may stamp a receiver's slot with an envelope id
		// above the sender's own captured sequence (the batch was in
		// flight between the two capture points), so the base takes the
		// max over stamps as well as sequences, cluster-wide.
		if hi+1 > p.seqBase {
			p.seqBase = hi + 1
		}
	}
	return p, nil
}

// algoWords is the codec width each dist algorithm's program uses —
// part of the config hash, needed before the generic dispatch picks a
// concrete program type.
func algoWords(code byte) (int, error) {
	switch code {
	case algoPR:
		return bcd.PageRank{}.Codec().Words(), nil
	case algoSSSP:
		return bcd.SSSP{}.Codec().Words(), nil
	case algoBFS:
		return bcd.BFS{}.Codec().Words(), nil
	case algoCC:
		return bcd.CC{}.Codec().Words(), nil
	}
	return 0, fmt.Errorf("tcp: unknown algorithm code %d", code)
}

// listenSameHost opens an ephemeral TCP listener on the host part of
// addr and returns it with its advertisable address.
func listenSameHost(addr net.Addr) (net.Listener, string, error) {
	host, _, err := net.SplitHostPort(addr.String())
	if err != nil {
		return nil, "", fmt.Errorf("tcp: data listener host from %q: %w", addr, err)
	}
	ln, err := net.Listen("tcp", net.JoinHostPort(host, "0"))
	if err != nil {
		return nil, "", fmt.Errorf("tcp: data listener: %w", err)
	}
	_, port, err := net.SplitHostPort(ln.Addr().String())
	if err != nil {
		_ = ln.Close()
		return nil, "", err
	}
	return ln, net.JoinHostPort(host, port), nil
}

// runDist dispatches on the assignment's algorithm code to the generic
// node runtime. Exactly one of joiners (coordinator) and cc (joiner) is
// non-nil.
func runDist(ctx context.Context, g *graph.Graph, a distAssign, tr *Transport, joiners []*ctrlConn, cc *ctrlConn, probeEvery time.Duration, start time.Time) (*DistResult, error) {
	switch a.algo {
	case algoPR:
		return runDistProg[float64, float64](ctx, g, a, bcd.PageRank{}, tr, joiners, cc, probeEvery, start)
	case algoSSSP:
		return runDistProg[float64, float64](ctx, g, a, bcd.SSSP{Source: a.source}, tr, joiners, cc, probeEvery, start)
	case algoBFS:
		return runDistProg[uint64, uint64](ctx, g, a, bcd.BFS{Source: a.source}, tr, joiners, cc, probeEvery, start)
	case algoCC:
		return runDistProg[uint64, uint64](ctx, g, a, bcd.CC{}, tr, joiners, cc, probeEvery, start)
	}
	return nil, fmt.Errorf("tcp: unknown algorithm code %d", a.algo)
}

func runDistProg[V, M any](ctx context.Context, g *graph.Graph, a distAssign, prog bcd.Program[V, M], tr *Transport, joiners []*ctrlConn, cc *ctrlConn, probeEvery time.Duration, start time.Time) (*DistResult, error) {
	d, err := newDistNode(g, a, prog, tr)
	if err != nil {
		return nil, err
	}
	if a.ckptDir != "" {
		if d.ckpt, err = newDistCheckpointer(d); err == nil && a.resumeEpoch > 0 {
			err = d.ckpt.resumeNode()
		}
		if err != nil {
			if cc != nil {
				cc.sendError(err)
			}
			d.tr.Close()
			return nil, err
		}
	}
	d.start()
	defer d.shutdown()
	if cc == nil {
		return d.coordinate(ctx, joiners, probeEvery, start)
	}
	return nil, d.follow(ctx, cc)
}

// distNode is one process's node: the owned slice of the global engine
// state plus the at-least-once delivery bookkeeping that the in-process
// engine keeps per node.
type distNode[V, M any] struct {
	g    *graph.Graph
	prog bcd.Program[V, M]
	a    distAssign
	part *graph.Partition
	tr   *Transport

	values     *word.Array[V]
	cache      *word.Array[V]
	slotSeq    []atomic.Uint64
	st         *sched.State
	blockOwner []int32 // static contiguous split; no failover in dist mode
	blockLo    int     // owned global blocks: [blockLo, blockHi)
	blockHi    int

	seq       atomic.Uint64
	totalSent atomic.Uint64
	applied   atomic.Uint64
	inflight  atomic.Int64

	unackedMu sync.Mutex
	unacked   map[uint64]*cluster.Pending
	flow      *cluster.Flow // retransmission timeout and send window

	applyMu  sync.Mutex
	stopping atomic.Bool
	done     chan struct{}
	failure  atomic.Pointer[error]
	wg       sync.WaitGroup

	// tel is never nil (a bare no-op registry when the caller passed
	// none), mirroring the in-process engine, so the hot path takes no
	// nil checks. shards[w] belongs to worker w; shC is the shared
	// control-plane shard (appliers on the transport read loops, the
	// retry loop, the checkpointer) — safe because Shard slots are
	// atomics.
	tel    *telemetry.Registry
	shards []telemetry.Shard
	shC    *telemetry.Shard

	// lastShipped is the cumulative NodeStats snapshot as of the last
	// fStats delta this node shipped (or, on the coordinator, folded into
	// its own sink). Only the control goroutine (follow/coordinate)
	// touches it.
	lastShipped telemetry.NodeStats

	// ckpt is non-nil when the assignment carries a checkpoint plan; see
	// dist_ckpt.go for the capture/resume protocol.
	ckpt *distCheckpointer[V, M]
}

// distBlockRange computes the contiguous global block span node i owns —
// the same formula the in-process engine seeds its owner table with.
func distBlockRange(nb, nodes, i int) (lo, hi int) {
	return i * nb / nodes, (i + 1) * nb / nodes
}

func newDistNode[V, M any](g *graph.Graph, a distAssign, prog bcd.Program[V, M], tr *Transport) (*distNode[V, M], error) {
	part, err := graph.NewPartition(g, a.blockSize)
	if err != nil {
		return nil, err
	}
	nb := part.NumBlocks()
	lo, hi := distBlockRange(nb, a.nodes, a.node)
	d := &distNode[V, M]{
		g: g, prog: prog, a: a, part: part, tr: tr,
		values:     word.NewArray(prog.Codec(), g.NumVertices()),
		cache:      word.NewArray(prog.Codec(), g.NumEdges()),
		slotSeq:    make([]atomic.Uint64, g.NumEdges()),
		st:         sched.NewState(nb),
		blockOwner: make([]int32, nb),
		blockLo:    lo, blockHi: hi,
		unacked: make(map[uint64]*cluster.Pending),
		flow:    cluster.NewFlow(a.nodes, a.retryBase, a.retryDeadline, a.maxUnacked),
		done:    make(chan struct{}),
	}
	for i := 0; i < a.nodes; i++ {
		blo, bhi := distBlockRange(nb, a.nodes, i)
		for b := blo; b < bhi; b++ {
			d.blockOwner[b] = int32(i)
		}
	}
	d.tel = tr.opts.Telemetry
	if d.tel == nil {
		d.tel = telemetry.New(telemetry.Options{})
	}
	d.flow.RegisterGauges(d.tel)
	d.shards = d.tel.Shards(a.workersPerNode + 1)
	d.shC = &d.shards[a.workersPerNode]
	d.tel.SetVertices(g.NumVertices())
	if t := d.tel.Tracer(); t != nil {
		// Node id as the Perfetto pid: merged per-node trace shards show
		// up as distinct process tracks, and the flow ids below encode the
		// sending node the same way.
		t.SetProcess(a.node, fmt.Sprintf("graphabcd-node%d", a.node))
	}
	// Initialize owned state exactly like the in-process engine: vertex
	// values everywhere (cheap, deterministic, needs only degrees), edge
	// cache slots only in the owned in-edge ranges — the only slots this
	// node ever gathers from.
	buf := make([]uint64, d.values.Words())
	for v := 0; v < g.NumVertices(); v++ {
		d.values.StoreBuf(int64(v), prog.Init(uint32(v), g), buf)
	}
	vlo, vhi := d.ownedVertexRange()
	for v := vlo; v < vhi; v++ {
		for s := g.InOffset(v); s < g.InOffset(v+1); s++ {
			d.cache.StoreBuf(s, prog.InitEdge(g.InSrc(s), g), buf)
		}
	}
	for b := lo; b < hi; b++ {
		d.st.Activate(b, 1)
	}
	return d, nil
}

func (d *distNode[V, M]) ownedVertexRange() (int, int) {
	if d.blockLo >= d.blockHi {
		return 0, 0
	}
	vlo, _ := d.part.VertexRange(d.blockLo)
	_, vhi := d.part.VertexRange(d.blockHi - 1)
	return vlo, vhi
}

func (d *distNode[V, M]) owner(b int) int { return int(d.blockOwner[b]) }

func (d *distNode[V, M]) fail(err error) {
	d.failure.CompareAndSwap(nil, &err)
	d.stopping.Store(true)
}

// start binds the transport and launches the workers and retry loop.
// The node is ready — joined, assigned, state initialized or restored —
// once start returns.
func (d *distNode[V, M]) start() {
	d.tr.Bind(d.a.nodes, d.deliver)
	for w := 0; w < d.a.workersPerNode; w++ {
		d.wg.Add(1)
		go func(w int, seed uint64) {
			defer d.wg.Done()
			d.workerLoop(w, seed)
		}(w, uint64(d.a.node*d.a.workersPerNode+w+1))
	}
	d.wg.Add(1)
	go func() {
		defer d.wg.Done()
		d.retryLoop()
	}()
	if h := d.tr.opts.Health; h != nil {
		h.SetReady(true, "running")
	}
	obslog.L().Info("dist node running",
		"event", "dist.start", "node", d.a.node,
		"blocks", d.blockHi-d.blockLo, "workers", d.a.workersPerNode)
}

// shutdown stops the workers and closes the transport; safe to call
// more than once.
func (d *distNode[V, M]) shutdown() {
	if h := d.tr.opts.Health; h != nil {
		h.SetReady(false, "stopped")
	}
	d.stopping.Store(true)
	select {
	case <-d.done:
	default:
		close(d.done)
	}
	d.wg.Wait()
	d.tr.Close()
}

// deliver is the transport's entry point. Data envelopes apply inline on
// the read loop (TCP backpressure is the inbox) and ack back; acks
// settle the sender's bookkeeping.
func (d *distNode[V, M]) deliver(to int, e cluster.Envelope) {
	if to != d.a.node {
		return // misrouted frame: a peer dialed the wrong address
	}
	if e.IsAck() {
		d.settle(e.ID())
		return
	}
	d.applyEnvelope(e)
	d.tr.Send(d.a.node, e.From(), cluster.NewAck(d.a.node, e.ID()))
}

// applyEnvelope installs a remote scatter batch under the write stamps,
// mirroring the in-process engine's handleEnvelope: a slot never
// regresses past a newer write, and every effective change re-activates
// its destination block. Each cache slot has exactly one writing node
// (the owner of its in-edge's source vertex), so per-sender envelope
// ids are a total order per slot.
func (d *distNode[V, M]) applyEnvelope(e cluster.Envelope) {
	d.applyMu.Lock()
	defer d.applyMu.Unlock()
	aStart := d.tel.Stamp()
	d.shC.FlowRecv(e.From(), e.ID(), aStart)
	words := d.cache.Words()
	slots, blocks, wordsIn := e.Slots(), e.Blocks(), e.Words()
	if len(blocks) != len(slots) || len(wordsIn) != len(slots)*words {
		return // malformed batch: drop; the sender's retry re-delivers
	}
	buf := make([]uint64, words)
	var old, incoming V
	for i, slot := range slots {
		if slot < 0 || slot >= int64(d.g.NumEdges()) {
			continue // out-of-range slot in a decoded batch: skip defensively
		}
		b := int(blocks[i])
		if b < d.blockLo || b >= d.blockHi {
			continue // not ours: a stale assignment or corrupt batch
		}
		if d.slotSeq[slot].Load() > e.ID() {
			continue // stale redelivery: a newer write already landed
		}
		d.cache.LoadBuf(slot, &old, buf)
		d.prog.Codec().DecodeInto(wordsIn[i*words:(i+1)*words], &incoming)
		d.cache.StoreBuf(slot, incoming, buf)
		d.slotSeq[slot].Store(e.ID())
		if delta := d.prog.Delta(old, incoming); delta > d.a.epsilon {
			d.st.Activate(b, delta)
		}
	}
	d.applied.Add(1)
	if end := d.tel.Stamp(); end > 0 {
		d.shC.Observe(telemetry.StageApply, end-aStart)
		// Cross-node propagation delay stands in for the staleness the
		// in-process engine measures in milli-epochs: how long this batch's
		// values were in flight (sender's scatter to this apply), in ms —
		// the bounded-delay quantity async-BCD convergence reasons about.
		if sentAt := e.SentAt(); !sentAt.IsZero() {
			d.shC.Observe(telemetry.StageStaleness, int64(time.Since(sentAt)/time.Millisecond))
		}
	}
}

// settle clears one unacked batch on first ack; duplicate acks find the
// entry gone and release nothing, keeping inflight and the window exact.
func (d *distNode[V, M]) settle(id uint64) {
	now := time.Now()
	d.unackedMu.Lock()
	p, ok := d.unacked[id]
	if ok {
		delete(d.unacked, id)
	}
	d.unackedMu.Unlock()
	if ok {
		d.inflight.Add(-1)
		d.flow.Ack(p, now)
	}
}

// workerLoop mirrors the in-process engine's worker for a single node.
func (d *distNode[V, M]) workerLoop(w int, seed uint64) {
	defer func() {
		if r := recover(); r != nil {
			d.fail(fmt.Errorf("tcp: dist worker panic: %v", r))
		}
	}()
	sch, err := sched.New(sched.Cyclic, d.st, seed)
	if err != nil {
		d.fail(err)
		return
	}
	ws := newDistWorkerState(d.prog, d.a)
	ws.sh = &d.shards[w]
	spins := 0
	for !d.stopping.Load() {
		b, ok := sch.Next()
		if !ok {
			spins++
			nap := time.Microsecond
			if spins >= 64 {
				nap = 50 * time.Microsecond
			}
			time.Sleep(nap)
			continue
		}
		spins = 0
		d.processBlock(b, ws)
		d.st.Done(b)
	}
}

// distWorkerState is the per-worker scratch, mirroring the in-process
// engine's workerState.
type distWorkerState[V, M any] struct {
	acc      M
	old, src V
	buf      []uint64
	enc      []uint64 // encoded scatter value
	deltas   []float64
	pending  []distBatch      // one building batch per destination node
	sh       *telemetry.Shard // this worker's telemetry shard
}

type distBatch struct {
	slots  []int64
	blocks []int32
	words  []uint64
}

func newDistWorkerState[V, M any](prog bcd.Program[V, M], a distAssign) *distWorkerState[V, M] {
	words := prog.Codec().Words()
	if words < 2 {
		words = 2
	}
	return &distWorkerState[V, M]{
		acc:     prog.NewAccum(),
		buf:     make([]uint64, words),
		enc:     make([]uint64, prog.Codec().Words()),
		pending: make([]distBatch, a.nodes),
	}
}

// processBlock runs the fused GAS chain for one owned block, batching
// remote scatter writes per destination node.
//
//abcd:hotpath
func (d *distNode[V, M]) processBlock(b int, ws *distWorkerState[V, M]) {
	lo, hi := d.part.VertexRange(b)
	if cap(ws.deltas) < hi-lo {
		ws.deltas = make([]float64, hi-lo) //abcdlint:ignore hotpath -- amortized: grows once to the largest owned block, then reused
	}
	deltas := ws.deltas[:hi-lo]
	gStart := d.tel.Stamp()
	var edges int64
	for v := lo; v < hi; v++ {
		d.values.LoadBuf(int64(v), &ws.old, ws.buf)
		d.prog.ResetAccum(&ws.acc)
		slo, shi := d.g.InOffset(v), d.g.InOffset(v+1)
		for s := slo; s < shi; s++ {
			d.cache.LoadBuf(s, &ws.src, ws.buf)
			d.prog.EdgeGather(&ws.acc, ws.old, d.g.InWeight(s), ws.src)
		}
		edges += shi - slo
		newVal := d.prog.Apply(uint32(v), ws.old, &ws.acc, shi-slo, d.g)
		if d.prog.Delta(ws.old, newVal) == 0 {
			deltas[v-lo] = 0
			continue
		}
		deltas[v-lo] = d.prog.Delta(
			d.prog.ScatterValue(uint32(v), ws.old, d.g),
			d.prog.ScatterValue(uint32(v), newVal, d.g))
		d.values.StoreBuf(int64(v), newVal, ws.buf)
	}
	ws.sh.Add(telemetry.CtrBlockUpdates, 1)
	ws.sh.Add(telemetry.CtrVertexUpdates, int64(hi-lo))
	ws.sh.Add(telemetry.CtrEdgesTraversed, edges)
	sStart := d.tel.Stamp()
	ws.sh.Observe(telemetry.StageGather, sStart-gStart)
	ws.sh.Trace(telemetry.StageGather, b, gStart, sStart-gStart)

	// Scatter: local slots store directly; remote slots batch into
	// state-based messages for their owner node.
	codec := d.prog.Codec()
	var writes, locals int64
	for v := lo; v < hi; v++ {
		delta := deltas[v-lo]
		if delta <= d.a.epsilon {
			continue
		}
		d.values.LoadBuf(int64(v), &ws.old, ws.buf)
		sval := d.prog.ScatterValue(uint32(v), ws.old, d.g)
		codec.Encode(sval, ws.enc)
		for i := d.g.OutOffset(v); i < d.g.OutOffset(v+1); i++ {
			slot := d.g.OutPos(i)
			db := d.part.BlockOf(d.g.OutDst(i))
			owner := d.owner(db)
			writes++
			if owner == d.a.node {
				d.cache.StoreBuf(slot, sval, ws.buf)
				d.st.Activate(db, delta)
				locals++
				continue
			}
			p := &ws.pending[owner]
			p.slots = append(p.slots, slot)        //abcdlint:ignore hotalloc,hotpath -- amortized: flush resets the batch to [:0], capacity is retained
			p.blocks = append(p.blocks, int32(db)) //abcdlint:ignore hotalloc,hotpath -- amortized: flush resets the batch to [:0], capacity is retained
			p.words = append(p.words, ws.enc...)   //abcdlint:ignore hotalloc,hotpath -- amortized: flush resets the batch to [:0], capacity is retained
			if len(p.slots) >= d.a.batchSize {
				d.flush(owner, p, ws.sh)
			}
		}
	}
	for owner := range ws.pending {
		if len(ws.pending[owner].slots) > 0 {
			d.flush(owner, &ws.pending[owner], ws.sh)
		}
	}
	ws.sh.Add(telemetry.CtrScatterWrites, writes)
	ws.sh.Add(telemetry.CtrLocalWrites, locals)
	if end := d.tel.Stamp(); end > 0 {
		ws.sh.Observe(telemetry.StageScatter, end-sStart)
		ws.sh.Trace(telemetry.StageScatter, b, sStart, end-sStart)
	}
}

// flush turns the building batch into a data envelope, registers it for
// at-least-once retry, and hands it to the transport, honoring the
// send window.
func (d *distNode[V, M]) flush(owner int, p *distBatch, sh *telemetry.Shard) {
	if !d.flow.Acquire(d.done) {
		return // shutdown: the batch dies with the run
	}
	e := cluster.NewDataEnvelope(d.a.node, d.seq.Add(1), time.Now(),
		append([]int64(nil), p.slots...),  //abcdlint:ignore hotalloc,hotpath -- ownership copy: the envelope crosses the transport while p is reused
		append([]int32(nil), p.blocks...), //abcdlint:ignore hotalloc,hotpath -- ownership copy: the envelope crosses the transport while p is reused
		append([]uint64(nil), p.words...)) //abcdlint:ignore hotalloc,hotpath -- ownership copy: the envelope crosses the transport while p is reused
	p.slots, p.blocks, p.words = p.slots[:0], p.blocks[:0], p.words[:0]
	d.totalSent.Add(1)
	d.inflight.Add(1)
	sh.Add(telemetry.CtrMessagesSent, int64(len(e.Slots())))
	sh.Add(telemetry.CtrBatchesSent, 1)
	sh.FlowSend(owner, e.ID(), d.tel.Stamp())
	pe := d.flow.Track(owner, e)
	d.unackedMu.Lock() //abcdlint:ignore hotpath -- at-least-once bookkeeping: one lock per batch, amortized over BatchSize slot updates
	d.unacked[e.ID()] = pe
	d.unackedMu.Unlock() //abcdlint:ignore hotpath -- at-least-once bookkeeping: see the matching Lock above
	d.tr.Send(d.a.node, owner, e)
}

// retryLoop is the single-node edition of the in-process engine's retry
// loop: scan under the lock, send outside it.
func (d *distNode[V, M]) retryLoop() {
	timer := time.NewTimer(d.flow.RetryTick())
	defer timer.Stop()
	var due []*cluster.Pending
	for !d.stopping.Load() {
		select {
		case <-d.done:
			return
		case <-timer.C:
		}
		timer.Reset(d.flow.RetryTick())
		now := time.Now()
		due = due[:0]
		var expired *cluster.Pending
		d.unackedMu.Lock()
		for _, p := range d.unacked {
			v := d.flow.Due(p, now)
			if v == cluster.Expired {
				expired = p
				break
			}
			if v == cluster.Retransmit {
				due = append(due, p)
			}
		}
		d.unackedMu.Unlock()
		if expired != nil {
			d.fail(fmt.Errorf("tcp: batch %d to node %d undelivered after %v (%d attempts): transport partitioned beyond the retry deadline",
				expired.Env.ID(), expired.To, now.Sub(expired.Env.SentAt()), expired.Attempts))
			return
		}
		for _, p := range due {
			if d.stopping.Load() {
				return
			}
			d.shC.Add(telemetry.CtrBatchesRetried, 1)
			d.tr.Send(d.a.node, p.To, p.Env)
		}
	}
}

func (d *distNode[V, M]) probe() probeReply {
	return probeReply{
		sent:      d.totalSent.Load(),
		applied:   d.applied.Load(),
		inflight:  d.inflight.Load(),
		quiescent: d.st.Quiescent(),
	}
}

// collectStats snapshots this node's cumulative telemetry — registry
// counters and histograms plus the transport's socket counters.
func (d *distNode[V, M]) collectStats() telemetry.NodeStats {
	s := d.tel.CollectNodeStats(d.a.node)
	w := d.tr.WireStats()
	s.Wire = telemetry.WireCounters{
		BytesSent: w.BytesSent, FramesSent: w.FramesSent,
		BytesRecv: w.BytesRecv, FramesRecv: w.FramesRecv,
		Reconnects: w.Reconnects, Drops: w.Drops,
		CRCDrops: w.CRCDrops, DecodeErrors: w.DecodeErrors,
		QueueHighWater: w.QueueHighWater,
	}
	return s
}

// shipStatsDelta returns the delta since the last shipped snapshot and
// advances the watermark. Only the control goroutine calls it.
func (d *distNode[V, M]) shipStatsDelta() telemetry.NodeStats {
	cur := d.collectStats()
	delta := cur.DeltaFrom(&d.lastShipped)
	d.lastShipped = cur
	return delta
}

// statsRound is one control-lane telemetry aggregation round: the
// coordinator folds its own delta into the sink, then asks every joiner
// for theirs. Rounds interleave with probe and checkpoint rounds on the
// same lockstep control lane; a round reads counters without mutating
// engine state, so it cannot disturb quiescence detection.
func (d *distNode[V, M]) statsRound(joiners []*ctrlConn) error {
	sink := d.tr.opts.Cluster
	if sink == nil {
		return nil
	}
	begin := time.Now()
	var waited time.Duration
	defer func() {
		span := time.Since(begin)
		sink.NoteRound(span-waited, span)
	}()
	own := d.shipStatsDelta()
	sink.Apply(&own)
	for _, j := range joiners {
		if err := j.write(newFrame(fStats)); err != nil {
			return fmt.Errorf("tcp: stats round: %w", err)
		}
		w0 := time.Now()
		body, err := j.expect(fStatsReply)
		waited += time.Since(w0)
		if err != nil {
			return fmt.Errorf("tcp: stats reply: %w", err)
		}
		ns, err := telemetry.DecodeNodeStats(body[1:])
		if err != nil {
			return err
		}
		sink.Apply(&ns)
	}
	obslog.L().Debug("cluster telemetry round merged",
		"event", "dist.stats_round", "nodes", sink.Len())
	return nil
}

// coordinate runs the coordinator's probe/terminate protocol over the
// joiner control connections while this process's own node works.
// Termination: two consecutive probe rounds in which every node is
// scheduler-quiescent with zero unacked batches and identical monotone
// sent/applied counters — nothing moved between the observations, so no
// update exists anywhere in the system.
func (d *distNode[V, M]) coordinate(ctx context.Context, joiners []*ctrlConn, probeEvery time.Duration, start time.Time) (*DistResult, error) {
	var prev []probeReply
	quietRounds := 0
	var nextCkpt time.Time
	if d.ckpt != nil {
		nextCkpt = time.Now().Add(d.a.ckptInterval)
	}
	var nextStats time.Time
	if d.tr.opts.Cluster != nil {
		nextStats = time.Now().Add(d.tr.opts.statsEvery())
	}
	for quietRounds < 2 {
		select {
		case <-ctx.Done():
			return nil, ctx.Err()
		case <-time.After(probeEvery):
		}
		if errp := d.failure.Load(); errp != nil {
			return nil, *errp
		}
		// Checkpoint rounds interleave with probe rounds on the same
		// lockstep control lane. A capture reads counters and state
		// without mutating either, so it cannot disturb the two-round
		// quiescence detection below.
		if d.ckpt != nil && !time.Now().Before(nextCkpt) {
			if err := d.checkpointRound(joiners); err != nil {
				return nil, err
			}
			nextCkpt = time.Now().Add(d.a.ckptInterval)
		}
		// Telemetry aggregation rounds interleave the same way.
		if !nextStats.IsZero() && !time.Now().Before(nextStats) {
			if err := d.statsRound(joiners); err != nil {
				return nil, err
			}
			nextStats = time.Now().Add(d.tr.opts.statsEvery())
		}
		round := make([]probeReply, 0, len(joiners)+1)
		round = append(round, d.probe())
		for _, j := range joiners {
			if err := j.write(newFrame(fProbe)); err != nil {
				return nil, fmt.Errorf("tcp: probe: %w", err)
			}
			body, err := j.expect(fProbeReply)
			if err != nil {
				return nil, fmt.Errorf("tcp: probe reply: %w", err)
			}
			r, err := decodeProbeReply(body[1:])
			if err != nil {
				return nil, err
			}
			round = append(round, r)
		}
		ok := prev != nil
		for _, r := range round {
			if !r.quiescent || r.inflight != 0 {
				ok = false
			}
		}
		if ok {
			for i := range round {
				if round[i].sent != prev[i].sent || round[i].applied != prev[i].applied {
					ok = false
					break
				}
			}
		}
		if ok {
			quietRounds++
		} else {
			quietRounds = 0
		}
		prev = round
	}

	// Quiesced: run one final stats round so the merged snapshot covers
	// the tail interval, then stop everyone and collect values.
	if err := d.statsRound(joiners); err != nil {
		return nil, err
	}
	obslog.L().Info("cluster quiescent, collecting values",
		"event", "dist.quiesce", "nodes", d.a.nodes,
		"send_window_batches", d.flow.Window(),
		"rtt_smoothed", d.flow.SRTT(), "rto", d.flow.RTO())
	var sent int64
	for _, r := range prev {
		sent += int64(r.sent)
	}
	d.stopping.Store(true)
	res := &DistResult{Algo: algoName(d.a.algo), BatchesSent: sent}
	vals := word.NewArray(d.prog.Codec(), d.g.NumVertices())
	vlo, vhi := d.ownedVertexRange()
	d.copyValues(vals, vlo, vhi)
	for _, j := range joiners {
		if err := j.write(newFrame(fStop)); err != nil {
			return nil, fmt.Errorf("tcp: stop: %w", err)
		}
	}
	for i, j := range joiners {
		if err := d.receiveValues(j, vals, i+1); err != nil {
			return nil, err
		}
		if err := j.write(newFrame(fDone)); err != nil {
			return nil, fmt.Errorf("tcp: done: %w", err)
		}
	}
	res.WallTime = time.Since(start)
	res.Wire = d.tr.WireStats()
	fillResult(res, vals)
	return res, nil
}

// follow is the joiner side of coordinate: answer probes until fStop,
// then ship the owned values and wait for fDone. The read deadline
// keeps the loop responsive to cancellation and local engine failure;
// control frames are small single-segment writes, so a deadline firing
// mid-frame (which would desync the stream) needs the kernel to split a
// tens-of-bytes loopback write — treated as the connection loss it
// effectively is.
func (d *distNode[V, M]) follow(ctx context.Context, cc *ctrlConn) error {
	for {
		if err := ctx.Err(); err != nil {
			return err
		}
		if errp := d.failure.Load(); errp != nil {
			cc.sendError(*errp)
			return *errp
		}
		_ = cc.c.SetReadDeadline(time.Now().Add(time.Second))
		body, err := cc.read()
		if err != nil {
			if ne, ok := err.(net.Error); ok && ne.Timeout() {
				continue
			}
			return fmt.Errorf("tcp: control connection: %w", err)
		}
		switch body[0] {
		case fProbe:
			if err := cc.write(appendProbeReply(newFrame(fProbeReply), d.probe())); err != nil {
				return err
			}
		case fStats:
			delta := d.shipStatsDelta()
			if err := cc.write(telemetry.AppendNodeStats(newFrame(fStatsReply), &delta)); err != nil {
				return err
			}
		case fCkpt:
			epoch, err := decodeEpoch(body[1:])
			if err != nil {
				cc.sendError(err)
				return err
			}
			if d.ckpt == nil {
				err := errors.New("tcp: coordinator requested a checkpoint but the assignment carried no checkpoint plan")
				cc.sendError(err)
				return err
			}
			// Capture on the control goroutine while the workers run —
			// that concurrency is the fuzziness. The ack promises only
			// that this node's state file is durable; the coordinator
			// commits the manifest once every node has promised.
			if err := d.ckpt.captureNode(epoch); err != nil {
				cc.sendError(err)
				return err
			}
			if err := cc.write(appendEpoch(newFrame(fCkptAck), epoch)); err != nil {
				return err
			}
		case fStop:
			d.stopping.Store(true)
			_ = cc.c.SetReadDeadline(time.Time{})
			if err := d.sendValues(cc); err != nil {
				return err
			}
			if _, err := cc.expect(fDone); err != nil {
				return fmt.Errorf("tcp: waiting for done: %w", err)
			}
			return nil
		default:
			return fmt.Errorf("tcp: unexpected control frame %d mid-run", body[0])
		}
	}
}

// copyValues copies this node's owned vertex range out of its live
// array. Only called after global quiescence, when no worker writes.
func (d *distNode[V, M]) copyValues(dst *word.Array[V], vlo, vhi int) {
	buf := make([]uint64, d.values.Words())
	var v V
	for i := vlo; i < vhi; i++ {
		d.values.LoadBuf(int64(i), &v, buf)
		dst.StoreBuf(int64(i), v, buf)
	}
}

// sendValues streams the owned vertex values as fValues chunks followed
// by an fDone terminator.
func (d *distNode[V, M]) sendValues(cc *ctrlConn) error {
	words := d.values.Words()
	vlo, vhi := d.ownedVertexRange()
	const chunkVerts = 32 << 10
	buf := make([]uint64, words)
	var v V
	for base := vlo; base < vhi; base += chunkVerts {
		end := min(base+chunkVerts, vhi)
		f := newFrame(fValues)
		f = binary.LittleEndian.AppendUint64(f, uint64(base))
		for i := base; i < end; i++ {
			d.values.LoadBuf(int64(i), &v, buf)
			d.prog.Codec().Encode(v, buf)
			for _, w := range buf[:words] {
				f = binary.LittleEndian.AppendUint64(f, w)
			}
		}
		if err := cc.write(f); err != nil {
			return err
		}
	}
	return cc.write(newFrame(fDone))
}

// receiveValues installs one joiner's owned range from its fValues
// stream into dst.
func (d *distNode[V, M]) receiveValues(cc *ctrlConn, dst *word.Array[V], node int) error {
	words := d.values.Words()
	nb := d.part.NumBlocks()
	blo, bhi := distBlockRange(nb, d.a.nodes, node)
	vlo, vhi := 0, 0
	if blo < bhi {
		vlo, _ = d.part.VertexRange(blo)
		_, vhi = d.part.VertexRange(bhi - 1)
	}
	buf := make([]uint64, words)
	var v V
	for {
		body, err := cc.read()
		if err != nil {
			return fmt.Errorf("tcp: values from node %d: %w", node, err)
		}
		if body[0] == fDone {
			return nil
		}
		if body[0] != fValues {
			return fmt.Errorf("tcp: unexpected frame %d in node %d's value stream", body[0], node)
		}
		c, err := decodeValuesChunk(body[1:])
		if err != nil {
			return err
		}
		if len(c.words)%(words*8) != 0 {
			return fmt.Errorf("tcp: node %d values chunk %d bytes, not a multiple of %d", node, len(c.words), words*8)
		}
		count := len(c.words) / (words * 8)
		if c.vlo < int64(vlo) || c.vlo+int64(count) > int64(vhi) {
			return fmt.Errorf("tcp: node %d values [%d,%d) outside its owned range [%d,%d)",
				node, c.vlo, c.vlo+int64(count), vlo, vhi)
		}
		for i := 0; i < count; i++ {
			for w := 0; w < words; w++ {
				buf[w] = binary.LittleEndian.Uint64(c.words[(i*words+w)*8:])
			}
			d.prog.Codec().DecodeInto(buf[:words], &v)
			dst.StoreBuf(c.vlo+int64(i), v, buf)
		}
	}
}

// fillResult converts the assembled value array into the concrete
// result slice for the algorithm's value type.
func fillResult[V any](res *DistResult, vals *word.Array[V]) {
	n := vals.Len()
	buf := make([]uint64, vals.Words())
	var v V
	switch any(v).(type) {
	case float64:
		res.Float = make([]float64, n)
		for i := 0; i < n; i++ {
			vals.LoadBuf(int64(i), &v, buf)
			res.Float[i] = any(v).(float64)
		}
	case uint64:
		res.Uint = make([]uint64, n)
		for i := 0; i < n; i++ {
			vals.LoadBuf(int64(i), &v, buf)
			res.Uint[i] = any(v).(uint64)
		}
	}
}

// snapshotSections is the coordinator's positioned-read view of a plain
// snapshot file.
type snapshotSections struct {
	f      *os.File
	n, m   int
	layout graph.SnapshotLayout
	inOff  []int64
	outOff []int64
}

func openSnapshotSections(path string) (*snapshotSections, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	var hdr [24]byte
	if _, err := io.ReadFull(f, hdr[:]); err != nil {
		_ = f.Close()
		return nil, fmt.Errorf("tcp: snapshot header: %w", err)
	}
	n64, m64, compressed, err := graph.ParseSnapshotHeader(hdr[:])
	if err != nil {
		_ = f.Close()
		return nil, err
	}
	if compressed {
		_ = f.Close()
		return nil, fmt.Errorf("tcp: %s is a compressed snapshot; section distribution needs the plain format (re-save as .gabs)", path)
	}
	if n64 < 1 || n64 > maxDistVertices || m64 < 0 || m64 > maxDistEdges {
		_ = f.Close()
		return nil, fmt.Errorf("tcp: snapshot dimensions V=%d E=%d out of range", n64, m64)
	}
	s := &snapshotSections{f: f, n: int(n64), m: int(m64)}
	s.layout = graph.SnapshotSectionLayout(s.n, s.m)
	if s.inOff, err = s.readOffsets(s.layout.InOff); err != nil {
		_ = f.Close()
		return nil, err
	}
	if s.outOff, err = s.readOffsets(s.layout.OutOff); err != nil {
		_ = f.Close()
		return nil, err
	}
	return s, nil
}

func (s *snapshotSections) close() { _ = s.f.Close() }

// readOffsets preads one (n+1)-entry u64 offset section and validates
// the monotone [0, m] span FromSections will re-check on the far side.
func (s *snapshotSections) readOffsets(off int64) ([]int64, error) {
	raw := make([]byte, (s.n+1)*8)
	if _, err := s.f.ReadAt(raw, off); err != nil {
		return nil, fmt.Errorf("tcp: snapshot offsets at %d: %w", off, err)
	}
	out := make([]int64, s.n+1)
	for i := range out {
		out[i] = int64(binary.LittleEndian.Uint64(raw[i*8:]))
	}
	if out[0] != 0 || out[s.n] != int64(s.m) {
		return nil, fmt.Errorf("tcp: snapshot offsets span [%d,%d], want [0,%d]", out[0], out[s.n], s.m)
	}
	for i := 0; i < s.n; i++ {
		if out[i] > out[i+1] {
			return nil, fmt.Errorf("tcp: snapshot offsets not monotone at %d", i)
		}
	}
	return out, nil
}

// nodeRanges computes one node's owned vertex and edge ranges under the
// assignment's partition.
func (s *snapshotSections) nodeRanges(a distAssign, node int) (vlo, vhi int, inLo, inHi, outLo, outHi int64) {
	nb := (s.n + a.blockSize - 1) / a.blockSize
	blo, bhi := distBlockRange(nb, a.nodes, node)
	if blo >= bhi {
		return 0, 0, 0, 0, 0, 0
	}
	vlo = blo * a.blockSize
	vhi = min(bhi*a.blockSize, s.n)
	return vlo, vhi, s.inOff[vlo], s.inOff[vhi], s.outOff[vlo], s.outOff[vhi]
}

// forEachSection walks the six per-node section slices in wire order:
// both offset arrays whole (the partial graph needs full CSR/CSC
// shape), then the owned in-edge slice of inSrc/inW and the owned
// out-edge slice of outDst/outPos.
func (s *snapshotSections) forEachSection(a distAssign, node int, fn func(sec byte, fileOff int64, elemSize int, elemBase, elemCount int64) error) error {
	_, _, inLo, inHi, outLo, outHi := s.nodeRanges(a, node)
	walk := []struct {
		sec       byte
		fileOff   int64
		elemSize  int
		base, cnt int64
	}{
		{secDistInOff, s.layout.InOff, 8, 0, int64(s.n + 1)},
		{secDistInSrc, s.layout.InSrc, 4, inLo, inHi - inLo},
		{secDistInW, s.layout.InW, 4, inLo, inHi - inLo},
		{secDistOutOff, s.layout.OutOff, 8, 0, int64(s.n + 1)},
		{secDistOutDst, s.layout.OutDst, 4, outLo, outHi - outLo},
		{secDistOutPos, s.layout.OutPos, 8, outLo, outHi - outLo},
	}
	for _, w := range walk {
		if err := fn(w.sec, w.fileOff, w.elemSize, w.base, w.cnt); err != nil {
			return err
		}
	}
	return nil
}

// sendSections streams one node's owned section slices to a joiner,
// chunked under the frame size cap and terminated by fDone.
func (s *snapshotSections) sendSections(cc *ctrlConn, a distAssign, node int) error {
	buf := make([]byte, maxFrameBody-64)
	err := s.forEachSection(a, node, func(sec byte, fileOff int64, elemSize int, elemBase, elemCount int64) error {
		bytesLeft := elemCount * int64(elemSize)
		pos := fileOff + elemBase*int64(elemSize)
		elem := elemBase
		for bytesLeft > 0 {
			take := min(bytesLeft, int64(len(buf)))
			take -= take % int64(elemSize)
			if _, err := s.f.ReadAt(buf[:take], pos); err != nil {
				return fmt.Errorf("tcp: snapshot section %d at %d: %w", sec, pos, err)
			}
			f := appendSectionChunk(newFrame(fSection), sectionChunk{sec: sec, elemBase: elem, payload: buf[:take]})
			if err := cc.write(f); err != nil {
				return err
			}
			pos += take
			elem += take / int64(elemSize)
			bytesLeft -= take
		}
		return nil
	})
	if err != nil {
		return err
	}
	return cc.write(newFrame(fDone))
}

// ownedGraph assembles the coordinator's own partial graph straight
// from the file — the same slices a joiner receives over the wire, via
// the same installer.
func (s *snapshotSections) ownedGraph(a distAssign) (*graph.Graph, error) {
	asm := newSectionAssembly(a)
	err := s.forEachSection(a, a.node, func(sec byte, fileOff int64, elemSize int, elemBase, elemCount int64) error {
		if elemCount == 0 {
			return nil
		}
		raw := make([]byte, elemCount*int64(elemSize))
		if _, err := s.f.ReadAt(raw, fileOff+elemBase*int64(elemSize)); err != nil {
			return fmt.Errorf("tcp: snapshot section %d: %w", sec, err)
		}
		return asm.install(sectionChunk{sec: sec, elemBase: elemBase, payload: raw})
	})
	if err != nil {
		return nil, err
	}
	return asm.assemble()
}

// sectionAssembly accumulates fSection chunks into the six section
// arrays and assembles the validated partial graph. Array sizes come
// from the assignment, whose dimensions decodeAssign range-checked at
// the protocol boundary.
type sectionAssembly struct {
	a      distAssign
	inOff  []int64
	inSrc  []uint32
	inW    []float32
	outOff []int64
	outDst []uint32
	outPos []int64
}

func newSectionAssembly(a distAssign) *sectionAssembly {
	return &sectionAssembly{
		a:      a,
		inOff:  make([]int64, a.n+1),
		inSrc:  make([]uint32, a.m),
		inW:    make([]float32, a.m),
		outOff: make([]int64, a.n+1),
		outDst: make([]uint32, a.m),
		outPos: make([]int64, a.m),
	}
}

// install places one chunk, bounds-checked against the declared
// dimensions.
func (asm *sectionAssembly) install(c sectionChunk) error {
	checkAligned := func(elemSize int, dstLen int) (int64, error) {
		if len(c.payload)%elemSize != 0 {
			return 0, fmt.Errorf("tcp: section %d chunk %d bytes, not %d-byte aligned", c.sec, len(c.payload), elemSize)
		}
		count := int64(len(c.payload) / elemSize)
		if c.elemBase+count > int64(dstLen) {
			return 0, fmt.Errorf("tcp: section %d chunk [%d,%d) exceeds %d entries", c.sec, c.elemBase, c.elemBase+count, dstLen)
		}
		return count, nil
	}
	switch c.sec {
	case secDistInOff, secDistOutOff, secDistOutPos:
		dst := asm.inOff
		if c.sec == secDistOutOff {
			dst = asm.outOff
		} else if c.sec == secDistOutPos {
			dst = asm.outPos
		}
		count, err := checkAligned(8, len(dst))
		if err != nil {
			return err
		}
		for i := int64(0); i < count; i++ {
			dst[c.elemBase+i] = int64(binary.LittleEndian.Uint64(c.payload[i*8:]))
		}
	case secDistInSrc, secDistOutDst:
		dst := asm.inSrc
		if c.sec == secDistOutDst {
			dst = asm.outDst
		}
		count, err := checkAligned(4, len(dst))
		if err != nil {
			return err
		}
		for i := int64(0); i < count; i++ {
			dst[c.elemBase+i] = binary.LittleEndian.Uint32(c.payload[i*4:])
		}
	case secDistInW:
		count, err := checkAligned(4, len(asm.inW))
		if err != nil {
			return err
		}
		for i := int64(0); i < count; i++ {
			asm.inW[c.elemBase+i] = math.Float32frombits(binary.LittleEndian.Uint32(c.payload[i*4:]))
		}
	default:
		return fmt.Errorf("tcp: unknown section id %d", c.sec)
	}
	return nil
}

func (asm *sectionAssembly) assemble() (*graph.Graph, error) {
	return graph.FromSections(asm.a.n, asm.a.m, asm.inOff, asm.inSrc, asm.inW, asm.outOff, asm.outDst, asm.outPos)
}

// receiveSections drains the coordinator's fSection stream (terminated
// by fDone) into an assembled partial graph.
func receiveSections(cc *ctrlConn, a distAssign) (*graph.Graph, error) {
	asm := newSectionAssembly(a)
	for {
		body, err := cc.read()
		if err != nil {
			return nil, fmt.Errorf("tcp: receiving sections: %w", err)
		}
		if body[0] == fDone {
			return asm.assemble()
		}
		if body[0] != fSection {
			return nil, fmt.Errorf("tcp: unexpected frame %d in section stream", body[0])
		}
		c, err := decodeSectionChunk(body[1:])
		if err != nil {
			return nil, err
		}
		if err := asm.install(c); err != nil {
			return nil, err
		}
	}
}
