// Command perfbench measures an in-process memorydb-mode server over
// loopback TCP with its own RESP load generator.
//
// The server is wired from the public constructors the way
// cmd/memorydb-server wires it: a transaction-log service whose AZs
// acknowledge after a fixed 2 ms, a node at the default shard count, the
// obs registry on, trace sampling 0, the multiplexed front end, and the
// forkless snapshot builder and log trimmer running. Only the AZ round
// trip is injected; every other layer runs for real.
//
// Usage (normally through run.py, which builds this package first):
//
//	perfbench --workload get-pipelined --seed 1 --seconds 10 --trace 0
//
// With --trace 0 the last line of standard output is a JSON object with
// the end-to-end metrics; with --trace 1 a second, traced measurement
// follows an untraced one and the object carries the per-layer metrics.
// Every reply is verified against a ledger of the writes the generator
// issued; any failure makes "correct" false.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"runtime"
	"sort"
	"time"
)

// workload is one traffic mix with its loop discipline. BENCHMARK.json
// records why each was chosen. mixed-open runs by name but is left out
// of BENCHMARK.json: its latencies at 1,000 op/s are mostly goroutine
// and timer wake-ups, and on a shared 2-vCPU host they moved by 20-45%
// between runs, more than any bound the file may set.
type workload struct {
	name  string
	mix   mix
	depth int     // closed loop: requests in flight per connection
	rate  float64 // open loop: offered op/s over all connections
}

var workloads = []workload{
	{name: "get-pipelined", mix: mix{getShare: 1, valueSize: 100}, depth: 32},
	{name: "set-durable", mix: mix{getShare: 0, valueSize: 1024}, depth: 64},
	{name: "mixed-open", mix: mix{getShare: 0.8, zipf: true, valueSize: 100}, rate: 1000},
}

const (
	conns       = 2 // load connections
	warmup      = time.Second
	setupRounds = 5
	// Rate ladder (mixed-open): geometric steps of ladderFactor from the
	// workload's fixed rate, each ladderStep long, up to the first step
	// that misses the SLO.
	ladderFactor = 1.1
	ladderStep   = time.Second
	ladderMax    = 16
	sloP99       = 50 * time.Millisecond
	watchdog     = 170 * time.Second
)

func main() {
	name := flag.String("workload", "", "workload name")
	seed := flag.Int64("seed", 1, "workload seed")
	seconds := flag.Int("seconds", 10, "measured seconds per phase")
	traced := flag.Int("trace", 0, "1 = traced run reporting per-layer metrics")
	commit := flag.String("git-commit", "unknown", "source commit, for the provenance record")
	flag.Parse()

	var w *workload
	for i := range workloads {
		if workloads[i].name == *name {
			w = &workloads[i]
		}
	}
	if w == nil || *seconds < 1 || (*traced != 0 && *traced != 1) {
		fmt.Fprintf(os.Stderr, "perfbench: bad arguments (workload %q, seconds %d, trace %d)\n", *name, *seconds, *traced)
		os.Exit(2)
	}
	time.AfterFunc(watchdog, func() {
		fmt.Fprintf(os.Stderr, "perfbench: run exceeded %v\n", watchdog)
		os.Exit(3)
	})
	cfg := runConfig{w: *w, seed: *seed, seconds: time.Duration(*seconds) * time.Second, traced: *traced == 1}
	out, err := run(cfg)
	if err != nil {
		fmt.Fprintf(os.Stderr, "perfbench: %v\n", err)
		os.Exit(1)
	}
	out.provenance = provenance(cfg, *commit, out.shards)
	out.print(cfg.traced)
}

type runConfig struct {
	w       workload
	seed    int64
	seconds time.Duration
	traced  bool
}

func provenance(cfg runConfig, commit string, shards int) map[string]any {
	return map[string]any{
		"git_commit":     commit,
		"go_version":     runtime.Version(),
		"gomaxprocs":     runtime.GOMAXPROCS(0),
		"num_cpu":        runtime.NumCPU(),
		"shard_count":    shards,
		"commit_latency": fmt.Sprintf("fixed %v per AZ ack, 2-of-3 quorum", commitLatency),
		"workload":       cfg.w.name,
		"seed":           cfg.seed,
		"seconds":        cfg.seconds.Seconds(),
		"traced":         cfg.traced,
		"modelled":       false,
		"note": "real RESP over loopback TCP to an in-process server; only the AZ round trip is injected, " +
			"every other layer (resp, server, core, engine, store, tracker, txlog, snapshot) runs for real",
	}
}

// metric is one reported figure. Ratios carry their base.
type metric struct {
	Name    string  `json:"name"`
	Value   float64 `json:"value"`
	Unit    string  `json:"unit"`
	Samples int64   `json:"samples"`
	Base    string  `json:"base,omitempty"`
	Flag    string  `json:"flag,omitempty"`
}

type output struct {
	provenance map[string]any
	shards     int
	attempted  int64
	failed     int64
	errs       []string
	e2e        []metric // --trace 0: the end-to-end metrics BENCHMARK.json gates
	extra      []metric // reported beside them, not gated
	layers     []metric // --trace 1
}

func (o *output) add(dst *[]metric, name string, v float64, unit string, n int64, base string) {
	*dst = append(*dst, metric{Name: name, Value: v, Unit: unit, Samples: n, Base: base})
}

func (o *output) print(traced bool) {
	all := append(append(append([]metric(nil), o.e2e...), o.extra...), o.layers...)
	for _, m := range all {
		line := fmt.Sprintf("%-32s %16.6f %-6s samples=%d", m.Name, m.Value, m.Unit, m.Samples)
		if m.Base != "" {
			line += "  base: " + m.Base
		}
		if m.Flag != "" {
			line += "  FLAG: " + m.Flag
		}
		fmt.Println(line)
	}
	for _, e := range o.errs {
		fmt.Fprintln(os.Stderr, "perfbench: failure:", e)
	}
	report, _ := json.Marshal(map[string]any{"provenance": o.provenance, "metrics": all})
	fmt.Printf("perfbench-report %s\n", report)

	final := map[string]any{}
	src := o.e2e
	if traced {
		src = o.layers
	}
	for _, m := range src {
		final[m.Name] = map[string]any{"value": m.Value, "unit": m.Unit}
	}
	line, _ := json.Marshal(map[string]any{
		"correct":   o.failed == 0 && o.attempted > 0,
		"attempted": o.attempted,
		"failed":    o.failed,
		"metrics":   final,
	})
	fmt.Println(string(line))
}

func (o *output) absorb(r *connResult) {
	o.attempted += r.attempted
	o.failed += r.failed
	o.errs = append(o.errs, r.errs...)
}

func sortedCopy(v []int64) []int64 {
	out := append([]int64(nil), v...)
	sort.Slice(out, func(i, j int) bool { return out[i] < out[j] })
	return out
}

func ms(ns int64) float64 { return float64(ns) / 1e6 }

func mean(v []int64) float64 {
	if len(v) == 0 {
		return 0
	}
	var s float64
	for _, x := range v {
		s += float64(x)
	}
	return s / float64(len(v))
}

func median(v []float64) float64 {
	s := append([]float64(nil), v...)
	sort.Float64s(s)
	n := len(s)
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}
