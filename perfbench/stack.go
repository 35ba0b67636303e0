package main

import (
	"context"
	"fmt"
	"net"
	"sync"
	"sync/atomic"
	"time"

	"memorydb/internal/clock"
	"memorydb/internal/core"
	"memorydb/internal/election"
	"memorydb/internal/obs"
	"memorydb/internal/resp"
	"memorydb/internal/s3"
	"memorydb/internal/server"
	"memorydb/internal/snapshot"
	"memorydb/internal/trace"
	"memorydb/internal/txlog"
)

// commitLatency is the memorydb-server default: every AZ acknowledges
// an append after a fixed 2 ms, so the 2-of-3 quorum commits at 2 ms.
// It is the only injected delay; every other layer runs for real.
const commitLatency = 2 * time.Millisecond

// Forkless builder cadence: a delta every deltaInterval log entries and
// a compaction every compactEvery deltas, so set-durable runs several
// delta+compaction cycles per run.
const (
	deltaInterval = 256
	compactEvery  = 8
	trimInterval  = 250 * time.Millisecond
)

type fixedLatency time.Duration

func (f fixedLatency) Sample() time.Duration { return time.Duration(f) }

// countingStore counts the bytes the snapshot layer uploads.
type countingStore struct {
	*s3.Store
	putBytes atomic.Int64
}

func (c *countingStore) Put(key string, data []byte) error {
	c.putBytes.Add(int64(len(data)))
	return c.Store.Put(key, data)
}

// heldBytes is the size of every object the in-memory store holds.
func (c *countingStore) heldBytes() int64 {
	keys, err := c.List("")
	if err != nil {
		return 0
	}
	var n int64
	for _, k := range keys {
		n += int64(c.Size(k))
	}
	return n
}

// stack is one in-process memorydb-mode server, wired from the public
// constructors the way cmd/memorydb-server wires them.
type stack struct {
	metrics *obs.Metrics
	log     *txlog.Log
	store   *countingStore
	snaps   *snapshot.Manager
	node    *core.Node
	builder *snapshot.Builder
	backend *tracedBackend
	srv     *server.Server

	cancel context.CancelFunc
	bg     sync.WaitGroup
}

func startStack() (*stack, error) {
	metrics := obs.New(obs.Options{SlowlogThreshold: 10 * time.Millisecond})
	collector := trace.NewCollector(0, 1, 0)
	svc := txlog.NewService(txlog.Config{
		Clock:         clock.NewReal(),
		CommitLatency: fixedLatency(commitLatency),
		Trace:         collector,
		Flight:        trace.NewFlight("txlog", 0),
	})
	lg, err := svc.CreateLog("shard-0")
	if err != nil {
		return nil, fmt.Errorf("create log: %w", err)
	}
	for _, az := range svc.AZs() {
		metrics.RegisterHistogram("az_append", fmt.Sprintf("az=%q", az.Name()), az.AckLatency())
	}
	st := &stack{metrics: metrics, log: lg, store: &countingStore{Store: s3.New()}}
	st.snaps = snapshot.NewManager(st.store, "snapshots")
	st.node, err = core.NewNode(core.Config{
		NodeID:    "node-0",
		ShardID:   "shard-0",
		Log:       lg,
		Snapshots: st.snaps,
		Obs:       metrics,
		Trace:     collector,
	})
	if err != nil {
		return nil, fmt.Errorf("create node: %w", err)
	}
	st.node.Start()
	if err := waitPrimary(st.node, 10*time.Second); err != nil {
		st.node.Stop()
		return nil, err
	}
	st.startBackground()
	st.backend = &tracedBackend{inner: server.NodeBackend{Node: st.node}}
	st.srv = server.New(server.Config{
		Addr: "127.0.0.1:0", Backend: st.backend, Multiplex: true,
		Obs: metrics, Trace: collector,
	})
	if err := st.srv.Start(); err != nil {
		st.stopBackground()
		st.node.Stop()
		return nil, fmt.Errorf("listen: %w", err)
	}
	return st, nil
}

func waitPrimary(n *core.Node, limit time.Duration) error {
	deadline := time.Now().Add(limit)
	for n.Role() != election.RolePrimary {
		if time.Now().After(deadline) {
			return fmt.Errorf("node not primary after %v", limit)
		}
		time.Sleep(time.Millisecond)
	}
	return nil
}

func (st *stack) addr() string { return st.srv.Addr().String() }

// startBackground starts the forkless snapshot builder and the log
// trimmer. A restarted builder bootstraps from the snapshot chain.
func (st *stack) startBackground() {
	ctx, cancel := context.WithCancel(context.Background())
	st.cancel = cancel
	st.builder = &snapshot.Builder{
		Manager: st.snaps, Log: st.log, ShardID: "shard-0",
		EngineVersion: 1,
		DeltaInterval: deltaInterval,
		CompactEvery:  compactEvery,
		Obs:           st.metrics,
		Flight:        st.node.FlightRecorder(),
	}
	trimmer := &snapshot.Trimmer{Manager: st.snaps, Interval: trimInterval}
	trimmer.AddShard(snapshot.Shard{ShardID: "shard-0", Log: st.log})
	st.bg.Add(2)
	go func() { defer st.bg.Done(); st.builder.Run(ctx) }()
	go func() { defer st.bg.Done(); trimmer.Run(ctx) }()
}

// stopBackground stops the builder and trimmer and waits for them; it
// is idempotent.
func (st *stack) stopBackground() {
	st.cancel()
	st.bg.Wait()
}

// close stops the server, the builder and trimmer, and the node.
func (st *stack) close() {
	st.srv.Close()
	st.stopBackground()
	st.node.Stop()
}

// prefillGroup is the MSET group size: per-key SETs over one connection
// would take tens of seconds for the whole keyspace.
const prefillGroup = 500

// prefill writes every key once through cross-slot MSETs over c.
func prefill(c *client, ks *keyspace, led *ledger, valueSize int, clk *monoClock) error {
	for lo := 0; lo < len(ks.names); lo += prefillGroup {
		hi := min(lo+prefillGroup, len(ks.names))
		argv := make([][]byte, 0, 1+2*(hi-lo))
		argv = append(argv, []byte("MSET"))
		seqs := make([]int64, 0, hi-lo)
		now := clk.now()
		for k := lo; k < hi; k++ {
			seq := led.issue(k, now)
			seqs = append(seqs, seq)
			argv = append(argv, ks.names[k], makeValue(k, seq, valueSize))
		}
		if err := c.w.WriteCommand(argv...); err != nil {
			return fmt.Errorf("prefill: %w", err)
		}
		if err := c.w.Flush(); err != nil {
			return fmt.Errorf("prefill: %w", err)
		}
		v, err := c.r.ReadValue()
		if err != nil {
			return fmt.Errorf("prefill: %w", err)
		}
		if v.Type != resp.SimpleString || v.Text() != "OK" {
			return fmt.Errorf("prefill: MSET replied %s", v.String())
		}
		now = clk.now()
		for _, s := range seqs {
			led.ack(s, now)
		}
	}
	return nil
}

// client is one RESP connection of the load generator.
type client struct {
	conn net.Conn
	r    *resp.Reader
	w    *resp.Writer
}

func dial(addr string) (*client, error) {
	c, err := net.Dial("tcp", addr)
	if err != nil {
		return nil, err
	}
	return &client{conn: c, r: resp.NewReader(c), w: resp.NewWriter(c)}, nil
}

func (c *client) close() { c.conn.Close() }

// monoClock is the generator's monotonic clock in nanoseconds.
type monoClock struct{ base time.Time }

func newMonoClock() *monoClock { return &monoClock{base: time.Now()} }

func (m *monoClock) now() int64 { return int64(time.Since(m.base)) + 1 }
