package main

import (
	"bytes"
	"context"
	"fmt"
	"io"
	"math/bits"
	"runtime"
	"strings"
	"sync/atomic"
	"time"

	"memorydb/internal/clock"
	"memorydb/internal/core"
	"memorydb/internal/engine"
	"memorydb/internal/obs"
	"memorydb/internal/resp"
	"memorydb/internal/server"
	"memorydb/internal/txlog"
)

// tracedBackend decorates the server's Backend. While on, it times every
// call and counts how many calls are inside the backend at once; while
// off, it costs one atomic load per call.
type tracedBackend struct {
	inner server.Backend
	on    atomic.Bool

	inflight    atomic.Int64
	calls       atomic.Int64
	inflightSum atomic.Int64
	inflightMax atomic.Int64
	lat         [numOpKinds]obs.Histogram
}

func (b *tracedBackend) Do(ctx context.Context, argv [][]byte, mode server.ReadMode) (resp.Value, error) {
	if !b.on.Load() {
		return b.inner.Do(ctx, argv, mode)
	}
	n := b.inflight.Add(1)
	b.calls.Add(1)
	b.inflightSum.Add(n)
	for cur := b.inflightMax.Load(); n > cur && !b.inflightMax.CompareAndSwap(cur, n); cur = b.inflightMax.Load() {
	}
	t0 := obs.Now()
	v, err := b.inner.Do(ctx, argv, mode)
	kind := opGet
	if len(argv) > 0 && strings.EqualFold(string(argv[0]), "SET") {
		kind = opSet
	}
	b.lat[kind].ObserveNanos(obs.Now() - t0)
	b.inflight.Add(-1)
	return v, err
}

func (b *tracedBackend) DoBatch(ctx context.Context, cmds [][][]byte, mode server.ReadMode) (resp.Value, error) {
	return b.inner.DoBatch(ctx, cmds, mode)
}

func (b *tracedBackend) reset() {
	b.calls.Store(0)
	b.inflightSum.Store(0)
	b.inflightMax.Store(0)
	for k := range b.lat {
		b.lat[k].Reset()
	}
}

// histQuantile estimates the q-quantile of an obs histogram,
// interpolating linearly inside the bucket that holds it.
func histQuantile(h *obs.Histogram, q float64) time.Duration {
	total := h.Count()
	if total == 0 {
		return 0
	}
	target := q * float64(total)
	var cum float64
	var out time.Duration
	found := false
	h.EachBucket(func(upper int64, c uint64) {
		if found {
			return
		}
		if cum+float64(c) >= target {
			width := int64(1)
			if upper >= 16 {
				width = int64(1) << (bits.Len64(uint64(upper)) - 1 - 4)
			}
			lower := upper - width + 1
			frac := (target - cum) / float64(c)
			out = time.Duration(float64(lower) + frac*float64(width))
			found = true
		}
		cum += float64(c)
	})
	if m := h.Max(); !found || out > m {
		out = m
	}
	return out
}

func histMean(h *obs.Histogram) float64 {
	if h.Count() == 0 {
		return 0
	}
	return float64(h.Sum()) / float64(h.Count())
}

// microResult is an isolated call's mean cost.
type microResult struct {
	nsPerOp, allocsPerOp float64
	ops                  int
}

// measureOp calls op repeatedly for about budget and reports its mean
// time and heap allocations per call.
func measureOp(budget time.Duration, op func(i int)) microResult {
	runtime.GC()
	var m0, m1 runtime.MemStats
	runtime.ReadMemStats(&m0)
	t0 := time.Now()
	n := 0
	for time.Since(t0) < budget {
		for j := 0; j < 64; j++ {
			op(n)
			n++
		}
	}
	el := time.Since(t0)
	runtime.ReadMemStats(&m1)
	return microResult{
		nsPerOp:     float64(el.Nanoseconds()) / float64(n),
		allocsPerOp: float64(m1.Mallocs-m0.Mallocs) / float64(n),
		ops:         n,
	}
}

const microBudget = 150 * time.Millisecond

// micro holds the isolated per-layer costs for one workload's mix.
type micro struct {
	parse, reply, exec, nodeGet, nodeSet, appendLog microResult
}

// mixCommands draws n commands of the workload's mix from seed, with
// SET values that encode a synthetic write sequence.
func mixCommands(ks *keyspace, m mix, seed int64, n int) [][][]byte {
	g := newOpGen(seed, m)
	out := make([][][]byte, n)
	for i := range out {
		kind, key := g.next()
		if kind == opGet {
			out[i] = [][]byte{cmdGET, ks.names[key]}
		} else {
			out[i] = [][]byte{cmdSET, ks.names[key], makeValue(key, int64(i), m.valueSize)}
		}
	}
	return out
}

// cyclicReader replays buf forever, so one resp.Reader can parse an
// unbounded stream of whole commands.
type cyclicReader struct {
	buf []byte
	off int
}

func (c *cyclicReader) Read(p []byte) (int, error) {
	n := copy(p, c.buf[c.off:])
	c.off = (c.off + n) % len(c.buf)
	return n, nil
}

// runMicro times isolated calls into resp, engine, core and txlog with
// the workload's own command mix.
func runMicro(ks *keyspace, m mix, seed int64) (*micro, error) {
	out := &micro{}
	cmds := mixCommands(ks, m, seed, 4096)

	var wire bytes.Buffer
	for _, argv := range cmds {
		wire.Write(resp.EncodeCommand(argv...))
	}
	rd := resp.NewReader(&cyclicReader{buf: wire.Bytes()})
	var parseErr error
	out.parse = measureOp(microBudget, func(int) {
		if _, err := rd.ReadCommand(); err != nil && parseErr == nil {
			parseErr = err
		}
	})
	if parseErr != nil {
		return nil, fmt.Errorf("resp parse: %w", parseErr)
	}

	replies := make([]resp.Value, len(cmds))
	for i, argv := range cmds {
		if len(argv) == 2 {
			replies[i] = resp.Bulk(makeValue(0, int64(i), m.valueSize))
		} else {
			replies[i] = resp.OK
		}
	}
	w := resp.NewWriter(io.Discard)
	out.reply = measureOp(microBudget, func(i int) {
		// Writes to io.Discard cannot fail.
		_ = w.WriteValue(replies[i%len(replies)])
		_ = w.Flush()
	})

	eng := engine.New(clock.NewReal())
	for k, name := range ks.names {
		eng.Exec([][]byte{cmdSET, name, makeValue(k, 0, m.valueSize)})
	}
	out.exec = measureOp(microBudget, func(i int) { eng.Exec(cmds[i%len(cmds)]) })

	if err := microNode(ks, m, out); err != nil {
		return nil, err
	}

	svc := txlog.NewService(txlog.Config{})
	lg, err := svc.CreateLog("micro")
	if err != nil {
		return nil, err
	}
	rec := resp.EncodeCommand(cmdSET, ks.names[0], makeValue(0, 0, m.valueSize))
	after := txlog.ZeroID
	var appendErr error
	out.appendLog = measureOp(microBudget, func(int) {
		id, err := lg.Append(context.Background(), after, txlog.Entry{Type: txlog.EntryData, Epoch: 1, Records: 1, Payload: rec})
		if err != nil && appendErr == nil {
			appendErr = err
		}
		after = id
	})
	if appendErr != nil {
		return nil, fmt.Errorf("txlog append: %w", appendErr)
	}
	return out, nil
}

// microNode times core.Node.Do for GET and SET on a node whose log
// commits with zero latency, so the figures are the node's own cost.
func microNode(ks *keyspace, m mix, out *micro) error {
	svc := txlog.NewService(txlog.Config{})
	lg, err := svc.CreateLog("micro")
	if err != nil {
		return err
	}
	n, err := core.NewNode(core.Config{NodeID: "micro-0", ShardID: "micro", Log: lg,
		Obs: obs.New(obs.Options{SlowlogThreshold: 10 * time.Millisecond})})
	if err != nil {
		return err
	}
	n.Start()
	defer n.Stop()
	if err := waitPrimary(n, 10*time.Second); err != nil {
		return err
	}
	ctx := context.Background()
	for lo := 0; lo < len(ks.names); lo += prefillGroup {
		argv := [][]byte{[]byte("MSET")}
		for k := lo; k < min(lo+prefillGroup, len(ks.names)); k++ {
			argv = append(argv, ks.names[k], makeValue(k, 0, m.valueSize))
		}
		if v, err := n.Do(ctx, argv); err != nil || v.IsError() {
			return fmt.Errorf("micro node prefill: %v %s", err, v.String())
		}
	}
	var doErr error
	check := func(v resp.Value, err error) {
		if doErr == nil && (err != nil || v.IsError()) {
			doErr = fmt.Errorf("micro node: %v %s", err, v.String())
		}
	}
	g := newOpGen(1, mix{getShare: 1})
	out.nodeGet = measureOp(microBudget, func(int) {
		_, key := g.next()
		check(n.Do(ctx, [][]byte{cmdGET, ks.names[key]}))
	})
	val := makeValue(0, 0, m.valueSize)
	out.nodeSet = measureOp(microBudget, func(int) {
		_, key := g.next()
		check(n.Do(ctx, [][]byte{cmdSET, ks.names[key], val}))
	})
	return doErr
}
