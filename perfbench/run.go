package main

import (
	"context"
	"fmt"
	"runtime"
	"sync"
	"syscall"
	"time"

	"memorydb/internal/core"
	"memorydb/internal/obs"
)

// run performs one benchmark run: set-up (several times, keeping the
// last), warm-up, the measured phase(s), then read-back and durability
// verification.
func run(cfg runConfig) (*output, error) {
	out := &output{}
	ks := newKeyspace()
	clk := newMonoClock()
	w := cfg.w

	var st *stack
	var led *ledger
	var first *client
	setups := make([]float64, 0, setupRounds)
	for i := 0; i < setupRounds; i++ {
		if st != nil {
			first.close()
			st.close()
			runtime.GC()
		}
		led = newLedger(numKeys)
		t0 := time.Now()
		var err error
		if st, err = startStack(); err != nil {
			return nil, err
		}
		if first, err = dial(st.addr()); err != nil {
			st.close()
			return nil, err
		}
		if err := prefill(first, ks, led, w.mix.valueSize, clk); err != nil {
			first.close()
			st.close()
			return nil, err
		}
		setups = append(setups, time.Since(t0).Seconds())
	}
	out.shards = st.node.NumShards()
	crossSlotAfterSetup := st.node.Stats().CrossSlotOps.Load()
	out.add(&out.e2e, "setup_s", median(setups), "s", int64(len(setups)),
		fmt.Sprintf("median of %d set-ups: server start plus prefill of %d keys by %d-key MSETs", len(setups), numKeys, prefillGroup))

	clients := []*client{first}
	for len(clients) < conns {
		c, err := dial(st.addr())
		if err != nil {
			for _, c := range clients {
				c.close()
			}
			st.close()
			return nil, err
		}
		clients = append(clients, c)
	}
	e := &env{ks: ks, led: led, clk: clk, mix: w.mix}
	phase := func(id int, d time.Duration) (*connResult, time.Duration) {
		t0 := time.Now()
		r := runPhase(e, clients, phaseSpec{id: id, seed: cfg.seed, duration: d, depth: w.depth, rate: w.rate})
		out.absorb(r)
		return r, time.Since(t0)
	}

	phase(1, warmup)
	measured, wall := phase(2, cfg.seconds)
	throughput := float64(measured.completed()) / wall.Seconds()
	all := sortedCopy(measured.all())
	out.add(&out.e2e, "throughput_ops", throughput, "1/s", measured.completed(), "completed ops / phase wall time")
	out.add(&out.e2e, "latency_p90_ms", ms(percentile(all, 0.9)), "ms", int64(len(all)), "")
	// Reported but not gated: in a closed loop p50 is the outstanding
	// count over throughput (Little's law), so it repeats throughput_ops
	// with more noise; p99 moved by 10-30% between runs on a shared
	// 2-vCPU host.
	out.add(&out.extra, "latency_p50_ms", ms(percentile(all, 0.5)), "ms", int64(len(all)), "")
	out.add(&out.extra, "latency_p99_ms", ms(percentile(all, 0.99)), "ms", int64(len(all)), "")
	for k := opKind(0); k < numOpKinds; k++ {
		if l := sortedCopy(measured.lat[k]); len(l) > 0 {
			name := map[opKind]string{opGet: "get", opSet: "set"}[k]
			out.add(&out.extra, name+"_p50_ms", ms(percentile(l, 0.5)), "ms", int64(len(l)), "")
			out.add(&out.extra, name+"_p99_ms", ms(percentile(l, 0.99)), "ms", int64(len(l)), "")
		}
	}

	if cfg.traced {
		traceLayers(out, st, e, clients, cfg, measured, throughput, crossSlotAfterSetup)
	} else {
		// The measured load has ended: let the builder finish its
		// in-flight snapshot and stop, so the heap is measured at a
		// quiescent point, then restart it for the rate ladder.
		measured, all = nil, nil
		st.stopBackground()
		// The in-memory S3 keeps every snapshot ever uploaded; a real
		// deployment holds them off-box, and their number steps with the
		// compactions that fit in a run, so they are left out.
		runtime.GC()
		var mem runtime.MemStats
		runtime.ReadMemStats(&mem)
		held := st.store.heldBytes()
		out.add(&out.e2e, "heap_mb", float64(int64(mem.HeapAlloc)-held)/(1<<20), "MB", 1,
			fmt.Sprintf("live heap %.1f MB minus %.1f MB of snapshot objects in the in-memory S3, after the measured phase with the builder stopped and a forced GC; includes the load generator",
				float64(mem.HeapAlloc)/(1<<20), float64(held)/(1<<20)))
		if w.rate > 0 {
			st.startBackground()
			ladder(out, e, clients, cfg)
		}
	}
	st.stopBackground()

	out.absorb(readBack(e, first))
	for _, c := range clients {
		c.close()
	}

	restore, err := durability(out, st, e)
	if err != nil {
		return nil, err
	}
	if cfg.traced {
		out.add(&out.layers, "snapshot.restore_s", restore, "s", 1,
			"fresh node on the same log and snapshot manager until AppliedSeq covers the committed tail")
		mi, err := runMicro(ks, w.mix, cfg.seed)
		if err != nil {
			return nil, err
		}
		addMicro(out, mi)
	}
	failed := float64(out.failed) / float64(max(out.attempted, 1))
	out.add(&out.extra, "failed_ratio", failed, "ratio", out.attempted,
		fmt.Sprintf("%d failed / %d attempted", out.failed, out.attempted))
	return out, nil
}

// ladder raises the offered rate geometrically until a step misses the
// SLO twice in a row (one retry absorbs a lone stall) and reports the
// rate achieved at the highest step that met it.
func ladder(out *output, e *env, clients []*client, cfg runConfig) {
	best, bestOffered := 0.0, 0.0
	steps := 0
	rate := cfg.w.rate
	for i := 0; i < ladderMax; i++ {
		ok, achieved := false, 0.0
		for try := 0; try < 2 && !ok; try++ {
			steps++
			ok, achieved = ladderStepOK(out, e, clients, cfg.seed, 100+2*i+try, rate)
		}
		if !ok {
			break
		}
		best, bestOffered = achieved, rate
		rate *= ladderFactor
	}
	out.add(&out.extra, "max_rate_at_slo_ops", best, "1/s", int64(steps),
		fmt.Sprintf("achieved rate at the highest passing step (offered %.0f op/s); steps x%.2f of %v; SLO p99<=%v, achieved>=95%% of offered, no backlog growth",
			bestOffered, ladderFactor, ladderStep, sloP99))
}

// ladderStepOK offers rate for one ladder step and reports whether the
// step met the SLO, and the rate it achieved.
func ladderStepOK(out *output, e *env, clients []*client, seed int64, id int, rate float64) (bool, float64) {
	start := e.clk.now()
	r := runPhase(e, clients, phaseSpec{id: id, seed: seed, duration: ladderStep, rate: rate})
	out.absorb(r)
	end := start + int64(ladderStep)
	achieved := float64(r.inWindow) / ladderStep.Seconds()
	p99 := percentile(sortedCopy(r.all()), 0.99)
	grew := backlogGrew(r.inflight, start, end)
	// The Poisson schedule's own count is the offered load of this step.
	ok := r.failed == 0 && time.Duration(p99) <= sloP99 && r.inWindow*100 >= r.attempted*95 && !grew
	fmt.Printf("ladder step: offered %7.0f op/s achieved %8.1f p99 %7.2f ms backlog-grew=%v ok=%v\n",
		rate, achieved, ms(p99), grew, ok)
	return ok, achieved
}

// durability stops the serving node, starts a fresh node on the same
// transaction log and snapshot manager, times its restore until its
// applied position covers the committed tail, and reads every key back
// through it.
func durability(out *output, st *stack, e *env) (float64, error) {
	st.srv.Close()
	st.stopBackground()
	st.node.Stop()
	target := st.log.CommittedTail().Seq
	t0 := time.Now()
	n, err := core.NewNode(core.Config{NodeID: "node-restore", ShardID: "shard-0", Log: st.log, Snapshots: st.snaps})
	if err != nil {
		return 0, err
	}
	n.Start()
	defer n.Stop()
	for n.AppliedSeq() < target {
		if time.Since(t0) > 60*time.Second {
			return 0, fmt.Errorf("restore: applied %d of %d after 60s", n.AppliedSeq(), target)
		}
		time.Sleep(100 * time.Microsecond)
	}
	restore := time.Since(t0).Seconds()
	ctx := context.Background()
	r := &connResult{}
	for k, name := range e.ks.names {
		r.attempted++
		v, _, err := n.DoRead(ctx, [][]byte{cmdGET, name}, core.ReadOpts{Consistency: core.ReadEventual})
		if err != nil || v.Null || v.IsError() {
			r.fail("durability: key %s after restore: %v %s", name, err, v.String())
			continue
		}
		if err := e.led.checkRead(k, v.Str, e.mix.valueSize, e.led.floorOf(k)); err != nil {
			r.fail("durability: lost write: %v", err)
		}
	}
	out.absorb(r)
	return restore, nil
}

// layerSnapshot is the cumulative state of the counters a traced phase
// differences.
type layerSnapshot struct {
	dataAppends, records int64
	payload, snapBytes   int64
	deltas, compactions  int64
	totalAlloc           uint64
	numGC                uint32
	cpu                  time.Duration
}

func takeLayerSnapshot(st *stack) layerSnapshot {
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	ls := st.log.Stats()
	h := st.snaps.Health()
	var ru syscall.Rusage
	_ = syscall.Getrusage(syscall.RUSAGE_SELF, &ru) // cannot fail for RUSAGE_SELF
	return layerSnapshot{
		dataAppends: ls.DataAppends, records: ls.Records, payload: ls.PayloadBytes,
		snapBytes: st.store.putBytes.Load(),
		deltas:    h.DeltasEmitted.Load(), compactions: h.Compactions.Load(),
		totalAlloc: ms.TotalAlloc, numGC: ms.NumGC,
		cpu: time.Duration(ru.Utime.Nano() + ru.Stime.Nano()),
	}
}

// traceLayers runs the traced phase after the untraced one and reports
// the per-layer metrics from the backend decorator, the client's resp
// calls, the obs stage histograms and the layers' own counters.
func traceLayers(out *output, st *stack, e *env, clients []*client, cfg runConfig, untraced *connResult, untracedOps float64, crossSlot int64) {
	st.metrics.ResetLatency()
	st.backend.reset()
	st.backend.on.Store(true)
	e.trace = true
	before := takeLayerSnapshot(st)

	var lagMax int64
	stopLag := make(chan struct{})
	var lagWG sync.WaitGroup
	lagWG.Add(1)
	go func() {
		defer lagWG.Done()
		tick := time.NewTicker(10 * time.Millisecond)
		defer tick.Stop()
		for {
			select {
			case <-stopLag:
				return
			case <-tick.C:
				lag := int64(st.log.CommittedTail().Seq - st.builder.Stats().Pos.Seq)
				lagMax = max(lagMax, lag)
			}
		}
	}()

	t0 := time.Now()
	r := runPhase(e, clients, phaseSpec{id: 3, seed: cfg.seed, duration: cfg.seconds, depth: cfg.w.depth, rate: cfg.w.rate})
	wall := time.Since(t0)
	close(stopLag)
	lagWG.Wait()
	after := takeLayerSnapshot(st)
	st.backend.on.Store(false)
	e.trace = false
	out.absorb(r)

	ops := r.completed()
	fops := float64(max(ops, 1))
	L := &out.layers
	m := st.metrics
	us := func(d time.Duration) float64 { return float64(d) / 1e3 }
	msd := func(d time.Duration) float64 { return float64(d) / 1e6 }
	stage := func(s obs.Stage) *obs.Histogram { return m.Stage(s) }
	cnt := func(s obs.Stage) int64 { return int64(stage(s).Count()) }

	// server
	rp := stage(obs.StageReadParse)
	out.add(L, "server.read_parse_p50_us", us(histQuantile(rp, 0.5)), "us", cnt(obs.StageReadParse),
		"includes idle wire time until the next command arrives")
	out.add(L, "server.reply_write_p50_us", us(histQuantile(stage(obs.StageReplyWrite), 0.5)), "us", cnt(obs.StageReplyWrite), "")
	b := st.backend
	calls := b.calls.Load()
	out.add(L, "server.backend_inflight_mean", float64(b.inflightSum.Load())/float64(max(calls, 1)), "count", calls,
		"calls inside Backend.Do seen at each call's entry, including itself")
	out.add(L, "server.backend_inflight_max", float64(b.inflightMax.Load()), "count", calls, "")
	var backendAll obs.Histogram
	for k := range b.lat {
		backendAll.Merge(&b.lat[k])
	}
	out.add(L, "server.backend_p50_us", us(histQuantile(&backendAll, 0.5)), "us", int64(backendAll.Count()), "")
	out.add(L, "server.backend_p99_us", us(histQuantile(&backendAll, 0.99)), "us", int64(backendAll.Count()), "")
	allLat := r.all()
	clientMean := mean(allLat)
	backendMean := histMean(&backendAll)
	out.add(L, "server.self_share", 1-backendMean/clientMean, "ratio", ops,
		fmt.Sprintf("1 - backend mean %.1f us / client mean %.1f us", backendMean/1e3, clientMean/1e3))

	// core
	out.add(L, "core.queue_wait_p50_us", us(histQuantile(stage(obs.StageQueueWait), 0.5)), "us", cnt(obs.StageQueueWait), "")
	out.add(L, "core.queue_wait_p99_us", us(histQuantile(stage(obs.StageQueueWait), 0.99)), "us", cnt(obs.StageQueueWait), "")
	out.add(L, "core.execute_p50_us", us(histQuantile(stage(obs.StageExecute), 0.5)), "us", cnt(obs.StageExecute), "")
	out.add(L, "core.batch_wait_p50_us", us(histQuantile(stage(obs.StageBatchWait), 0.5)), "us", cnt(obs.StageBatchWait), "")
	out.add(L, "core.cross_slot_ops", float64(st.node.Stats().CrossSlotOps.Load()), "count", 1,
		fmt.Sprintf("cumulative at the end of the traced phase; %d of them by the prefill", crossSlot))

	// tracker
	out.add(L, "tracker.release_p50_us", us(histQuantile(stage(obs.StageTrackerRelease), 0.5)), "us", cnt(obs.StageTrackerRelease), "")

	// txlog
	appends := after.dataAppends - before.dataAppends
	records := after.records - before.records
	userBytes := r.userBytes
	out.add(L, "txlog.append_p50_ms", msd(histQuantile(stage(obs.StageAppend), 0.5)), "ms", cnt(obs.StageAppend), "")
	out.add(L, "txlog.quorum_wait_p50_ms", msd(histQuantile(stage(obs.StageQuorumWait), 0.5)), "ms", cnt(obs.StageQuorumWait), "")
	out.add(L, "txlog.quorum_wait_p99_ms", msd(histQuantile(stage(obs.StageQuorumWait), 0.99)), "ms", cnt(obs.StageQuorumWait), "")
	out.add(L, "txlog.records_per_entry", ratio(records, appends), "ratio", appends,
		fmt.Sprintf("%d records / %d data entries", records, appends))
	out.add(L, "txlog.entries_per_s", float64(appends)/wall.Seconds(), "1/s", appends, "")
	payload := after.payload - before.payload
	out.add(L, "txlog.bytes_per_user_byte", ratio(payload, userBytes), "ratio", appends,
		fmt.Sprintf("%d log payload bytes / %d key+value bytes written", payload, userBytes))

	// snapshot
	snapBytes := after.snapBytes - before.snapBytes
	out.add(L, "snapshot.deltas", float64(after.deltas-before.deltas), "count", 1, "")
	out.add(L, "snapshot.compactions", float64(after.compactions-before.compactions), "count", 1, "")
	out.add(L, "snapshot.lag_entries_max", float64(lagMax), "count", int64(wall/(10*time.Millisecond)),
		"committed tail minus builder position, sampled every 10 ms")
	out.add(L, "snapshot.bytes_per_user_byte", ratio(snapBytes, userBytes), "ratio", after.deltas-before.deltas+after.compactions-before.compactions,
		fmt.Sprintf("%d snapshot bytes uploaded / %d key+value bytes written", snapBytes, userBytes))

	// loadgen
	late := sortedCopy(r.late)
	out.add(L, "loadgen.late_p99_ms", ms(percentile(late, 0.99)), "ms", int64(len(late)),
		"open loop: send time minus intended send time; 0 for closed loops")
	out.add(L, "loadgen.achieved_ops", float64(ops)/wall.Seconds(), "1/s", ops, "")
	out.add(L, "loadgen.resp_encode_ns", ratio(r.encodeNanos, r.encodes), "ns", r.encodes, "resp.Writer.WriteCommand per command")
	out.add(L, "loadgen.ops_per_flush", ratio(r.encodes, r.flushes), "ratio", r.flushes,
		fmt.Sprintf("%d commands / %d flushes", r.encodes, r.flushes))

	// process
	cpu := after.cpu - before.cpu
	out.add(L, "process.cpu_us_per_op", float64(cpu.Microseconds())/fops, "us", ops,
		fmt.Sprintf("%v CPU (server and generator) / %d ops", cpu, ops))
	out.add(L, "process.alloc_bytes_per_op", float64(after.totalAlloc-before.totalAlloc)/fops, "B", ops, "")
	out.add(L, "process.gc_per_kop", float64(after.numGC-before.numGC)*1000/fops, "ratio", ops,
		fmt.Sprintf("%d GCs / %d ops x 1000", after.numGC-before.numGC, ops))

	// recon: per op type, 1 - (front-end stage means + node time) / client mean
	front := histMean(rp) + histMean(stage(obs.StageReplyWrite))
	var stagesSum, clientSum float64
	for k := opKind(0); k < numOpKinds; k++ {
		n := float64(len(r.lat[k]))
		if n == 0 {
			continue
		}
		node := histMean(m.Command(k.String()))
		cm := mean(r.lat[k])
		share := 1 - (front+node)/cm
		flag := ""
		if share > 0.15 {
			flag = "more than 15% of client time unexplained"
		}
		out.extra = append(out.extra, metric{Name: "recon.unexplained_share_" + k.String(), Value: share, Unit: "ratio",
			Samples: int64(n), Flag: flag,
			Base: fmt.Sprintf("1 - (read_parse %.1f + reply_write %.1f + node %.1f us) / client mean %.1f us",
				histMean(rp)/1e3, histMean(stage(obs.StageReplyWrite))/1e3, node/1e3, cm/1e3)})
		stagesSum += n * (front + node)
		clientSum += n * cm
	}
	share := 1 - stagesSum/clientSum
	flag := ""
	if share > 0.15 {
		flag = "more than 15% of client time unexplained"
	}
	*L = append(*L, metric{Name: "recon.unexplained_share", Value: share, Unit: "ratio", Samples: ops, Flag: flag,
		Base: fmt.Sprintf("1 - op-weighted stage sum %.1f us / client mean %.1f us", stagesSum/fops/1e3, clientSum/fops/1e3)})
	// The pipelining gain: the same closed loop at depth 1. Today's
	// serial front end answers one command per connection at a time, so
	// the gain stays near 1.
	if cfg.w.depth > 0 {
		d1 := max(cfg.seconds/2, time.Second)
		t1 := time.Now()
		r1 := runPhase(e, clients, phaseSpec{id: 4, seed: cfg.seed, duration: d1, depth: 1})
		out.absorb(r1)
		d1ops := float64(r1.completed()) / time.Since(t1).Seconds()
		out.add(L, "loadgen.depth1_ops", d1ops, "1/s", r1.completed(), fmt.Sprintf("closed loop, %d conns x depth 1, %v", len(clients), d1))
		out.add(L, "loadgen.depth_gain", untracedOps/d1ops, "ratio", r1.completed(),
			fmt.Sprintf("untraced %.0f op/s at depth %d / %.0f op/s at depth 1", untracedOps, cfg.w.depth, d1ops))
	} else {
		out.add(L, "loadgen.depth1_ops", 0, "1/s", 0, "open loop: no depth")
		out.add(L, "loadgen.depth_gain", 0, "ratio", 0, "open loop: no depth")
	}

	um := mean(untraced.all())
	out.add(L, "trace.overhead", clientMean/um-1, "ratio", ops,
		fmt.Sprintf("traced client mean %.1f us / untraced %.1f us - 1 (untraced %.0f op/s, traced %.0f op/s)",
			clientMean/1e3, um/1e3, untracedOps, float64(ops)/wall.Seconds()))
}

func addMicro(out *output, mi *micro) {
	L := &out.layers
	add := func(name string, v float64, unit string, r microResult) {
		out.add(L, name, v, unit, int64(r.ops), "isolated calls with the workload's command mix")
	}
	add("resp.parse_ns", mi.parse.nsPerOp, "ns", mi.parse)
	add("resp.parse_allocs", mi.parse.allocsPerOp, "count", mi.parse)
	add("resp.reply_ns", mi.reply.nsPerOp, "ns", mi.reply)
	add("engine.exec_ns", mi.exec.nsPerOp, "ns", mi.exec)
	add("engine.exec_allocs", mi.exec.allocsPerOp, "count", mi.exec)
	add("core.node_get_ns", mi.nodeGet.nsPerOp, "ns", mi.nodeGet)
	add("core.node_get_allocs", mi.nodeGet.allocsPerOp, "count", mi.nodeGet)
	add("core.node_set_ns", mi.nodeSet.nsPerOp, "ns", mi.nodeSet)
	add("core.node_set_allocs", mi.nodeSet.allocsPerOp, "count", mi.nodeSet)
	add("txlog.append_ns", mi.appendLog.nsPerOp, "ns", mi.appendLog)
	add("txlog.append_allocs", mi.appendLog.allocsPerOp, "count", mi.appendLog)
}

func ratio(a, b int64) float64 {
	if b == 0 {
		return 0
	}
	return float64(a) / float64(b)
}
