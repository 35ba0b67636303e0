package main

import (
	"fmt"
	"math"
	"math/rand"
	"sync"
	"sync/atomic"
	"time"

	"memorydb/internal/resp"
)

type opKind uint8

const (
	opGet opKind = iota
	opSet
	numOpKinds
)

func (k opKind) String() string {
	if k == opGet {
		return "GET"
	}
	return "SET"
}

// mix is a workload's command mix.
type mix struct {
	getShare  float64 // fraction of GETs; the rest are SETs
	zipf      bool    // Zipf-skewed keys (s=zipfS) instead of uniform
	valueSize int
}

const zipfS = 1.1

// splitmix derives independent stream seeds from the run seed.
func splitmix(x uint64) int64 {
	x += 0x9e3779b97f4a7c15
	x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9
	x = (x ^ (x >> 27)) * 0x94d049bb133111eb
	return int64(x ^ (x >> 31))
}

func streamSeed(seed int64, phase, conn int) int64 {
	return splitmix(uint64(seed)*1_000_003 + uint64(phase)*7_919 + uint64(conn))
}

// opGen draws a connection's command sequence.
type opGen struct {
	rng  *rand.Rand
	zipf *rand.Zipf
	perm []int
	mix  mix
}

// newOpGen seeds a generator. Zipf ranks map through a seeded
// permutation, so the hot keys land on scattered slots and shards.
func newOpGen(seed int64, m mix) *opGen {
	g := &opGen{rng: rand.New(rand.NewSource(seed)), mix: m}
	if m.zipf {
		g.zipf = rand.NewZipf(g.rng, zipfS, 1, numKeys-1)
		g.perm = rand.New(rand.NewSource(seed ^ 0x5bd1e995)).Perm(numKeys)
	}
	return g
}

func (g *opGen) next() (opKind, int) {
	kind := opSet
	if g.rng.Float64() < g.mix.getShare {
		kind = opGet
	}
	if g.zipf != nil {
		return kind, g.perm[g.zipf.Uint64()]
	}
	return kind, g.rng.Intn(numKeys)
}

// schedule is an open-loop connection's Poisson arrival process: each
// arrival carries its intended send offset and its command.
type schedule struct {
	gen  *opGen
	exp  *rand.Rand
	rate float64 // arrivals per second
	at   float64 // seconds since the start of the phase
}

func newSchedule(seed int64, rate float64, m mix) *schedule {
	return &schedule{gen: newOpGen(seed, m), exp: rand.New(rand.NewSource(seed ^ 0x27d4eb2f)), rate: rate}
}

func (s *schedule) next() (offset time.Duration, kind opKind, key int) {
	s.at += s.exp.ExpFloat64() / s.rate
	kind, key = s.gen.next()
	return time.Duration(s.at * float64(time.Second)), kind, key
}

// env is what every phase shares: the keyspace, the write ledger and
// the generator's clock.
type env struct {
	ks    *keyspace
	led   *ledger
	clk   *monoClock
	mix   mix
	trace bool // time the client's resp.Writer calls
}

// pending is one request sent and not yet answered.
type pending struct {
	kind     opKind
	key      int
	seq      int64 // SET: the ledger write
	floor    int64 // GET: the key's staleness floor at send
	intended int64 // open loop: when the schedule wanted it sent
	sent     int64
}

// inflightSample is the number of requests outstanding on a connection
// at a point in time.
type inflightSample struct {
	at, n int64
}

// connResult is what one connection measured in one phase.
type connResult struct {
	lat       [numOpKinds][]int64 // latency per op kind, ns
	late      []int64             // open loop: send time - intended time, ns
	attempted int64
	failed    int64
	errs      []string
	inflight  []inflightSample
	maxOut    int64
	inWindow  int64 // replies read before the phase's send window closed
	userBytes int64 // key+value bytes of the SETs sent
	// client-side resp cost, sampled only when env.trace is set
	encodeNanos, encodes, flushes int64
}

func (r *connResult) fail(format string, args ...any) {
	r.failed++
	if len(r.errs) < 5 {
		r.errs = append(r.errs, fmt.Sprintf(format, args...))
	}
}

// phaseSpec is one load phase over all connections.
type phaseSpec struct {
	id       int // salts the stream seeds, so phases draw distinct sequences
	seed     int64
	duration time.Duration
	depth    int     // closed loop: requests in flight per connection
	rate     float64 // open loop: total op/s over all connections
}

// runPhase drives every connection with one sender and one reply reader
// and returns the merged result.
func runPhase(e *env, clients []*client, ps phaseSpec) *connResult {
	results := make([]*connResult, len(clients))
	var wg sync.WaitGroup
	for i, c := range clients {
		wg.Add(1)
		go func(i int, c *client) {
			defer wg.Done()
			results[i] = runConn(e, c, ps, streamSeed(ps.seed, ps.id, i), len(clients))
		}(i, c)
	}
	wg.Wait()
	return mergeResults(results)
}

// runConn runs one connection for one phase. Closed loop (depth > 0): a
// new request is sent only while fewer than depth are outstanding, and
// latency runs from the send. Open loop: requests are sent on a Poisson
// schedule whatever the backlog, and latency runs from the intended send
// time, so a stalled server cannot hide the queueing it causes.
func runConn(e *env, c *client, ps phaseSpec, seed int64, conns int) *connResult {
	res := &connResult{}
	closed := ps.depth > 0
	var slots chan struct{}
	var fifo chan pending
	if closed {
		// The semaphore holds one token per outstanding request, so the
		// FIFO of outstanding requests never holds more than depth.
		slots = make(chan struct{}, ps.depth)
		fifo = make(chan pending, ps.depth)
	} else {
		// An open-loop backlog may grow past any fixed depth; this bound
		// only stops a dead server from exhausting memory (a full FIFO
		// delays the sender, which the lateness figure then shows).
		fifo = make(chan pending, 1<<16)
	}
	start := e.clk.now()
	end := start + int64(ps.duration)
	// A deadline bounds the wait on a server that stopped answering; if it
	// cannot be set, the reads below still fail on a dead connection.
	_ = c.conn.SetReadDeadline(time.Now().Add(ps.duration + 30*time.Second))

	var sent, done atomic.Int64
	readerDone := make(chan struct{})
	rres := &connResult{}
	go func() {
		defer close(readerDone)
		broken := false
		for p := range fifo {
			if broken {
				rres.fail("%s: connection broken", p.kind)
			} else if v, err := c.r.ReadValue(); err != nil {
				broken = true
				rres.fail("%s: read reply: %v", p.kind, err)
			} else {
				now := e.clk.now()
				if err := e.verify(p, v, now); err != nil {
					rres.fail("%v", err)
				}
				from := p.sent
				if !closed {
					from = p.intended
				}
				rres.lat[p.kind] = append(rres.lat[p.kind], now-from)
				if now <= end {
					rres.inWindow++
				}
			}
			done.Add(1)
			if closed {
				<-slots
			}
		}
	}()

	var sched *schedule
	var gen *opGen
	if closed {
		gen = newOpGen(seed, e.mix)
	} else {
		sched = newSchedule(seed, ps.rate/float64(conns), e.mix)
	}
	buffered := false
	flush := func() error {
		if !buffered {
			return nil
		}
		buffered = false
		if e.trace {
			res.flushes++
		}
		return c.w.Flush()
	}
	var lastSample int64
	var werr error
sendLoop:
	for werr == nil {
		var p pending
		if closed {
			if e.clk.now() >= end {
				break
			}
			select {
			case slots <- struct{}{}:
			default:
				// Depth reached: push the buffered commands out before
				// waiting for a reply to free a slot.
				if werr = flush(); werr != nil {
					break sendLoop
				}
				slots <- struct{}{}
			}
			p.kind, p.key = gen.next()
		} else {
			off, kind, key := sched.next()
			if off >= ps.duration {
				break
			}
			p.kind, p.key, p.intended = kind, key, start+int64(off)
			if wait := p.intended - e.clk.now(); wait > 0 {
				if werr = flush(); werr != nil {
					break
				}
				time.Sleep(time.Duration(wait))
			}
		}
		p.sent = e.clk.now()
		if !closed {
			res.late = append(res.late, p.sent-p.intended)
		}
		werr = e.send(c, &p, res)
		buffered = true
		fifo <- p
		out := sent.Add(1) - done.Load()
		res.maxOut = max(res.maxOut, out)
		if p.sent-lastSample >= int64(20*time.Millisecond) {
			res.inflight = append(res.inflight, inflightSample{at: p.sent, n: out})
			lastSample = p.sent
		}
	}
	if werr == nil {
		werr = flush()
	}
	if werr != nil {
		res.fail("write command: %v", werr)
	}
	close(fifo)
	<-readerDone
	res.attempted = sent.Load()
	res.lat = rres.lat
	res.inWindow = rres.inWindow
	res.failed += rres.failed
	res.errs = append(res.errs, rres.errs...)
	_ = c.conn.SetReadDeadline(time.Time{}) // see above
	return res
}

// send encodes one command into the connection's write buffer.
func (e *env) send(c *client, p *pending, res *connResult) error {
	key := e.ks.names[p.key]
	var t0 int64
	if e.trace {
		t0 = e.clk.now()
	}
	var err error
	if p.kind == opGet {
		p.floor = e.led.floorOf(p.key)
		err = c.w.WriteCommand(cmdGET, key)
	} else {
		p.seq = e.led.issue(p.key, p.sent)
		val := makeValue(p.key, p.seq, e.mix.valueSize)
		res.userBytes += int64(len(key) + len(val))
		err = c.w.WriteCommand(cmdSET, key, val)
	}
	if e.trace {
		res.encodeNanos += e.clk.now() - t0
		res.encodes++
	}
	return err
}

var (
	cmdGET  = []byte("GET")
	cmdSET  = []byte("SET")
	cmdMGET = []byte("MGET")
)

// verify checks one reply against the ledger: a SET must answer +OK and
// is then acknowledged; a GET must return a value the key could hold.
func (e *env) verify(p pending, v resp.Value, now int64) error {
	if p.kind == opSet {
		if v.Type != resp.SimpleString || v.Text() != "OK" {
			return fmt.Errorf("SET %s replied %s", e.ks.names[p.key], v.String())
		}
		e.led.ack(p.seq, now)
		return nil
	}
	if v.Type != resp.BulkString || v.Null {
		return fmt.Errorf("GET %s replied %s", e.ks.names[p.key], v.String())
	}
	return e.led.checkRead(p.key, v.Str, e.mix.valueSize, p.floor)
}

func mergeResults(rs []*connResult) *connResult {
	out := &connResult{}
	for _, r := range rs {
		for k := range r.lat {
			out.lat[k] = append(out.lat[k], r.lat[k]...)
		}
		out.late = append(out.late, r.late...)
		out.attempted += r.attempted
		out.failed += r.failed
		out.errs = append(out.errs, r.errs...)
		out.inflight = append(out.inflight, r.inflight...)
		out.maxOut = max(out.maxOut, r.maxOut)
		out.inWindow += r.inWindow
		out.userBytes += r.userBytes
		out.encodeNanos += r.encodeNanos
		out.encodes += r.encodes
		out.flushes += r.flushes
	}
	return out
}

func (r *connResult) completed() int64 {
	var n int64
	for _, l := range r.lat {
		n += int64(len(l))
	}
	return n
}

func (r *connResult) all() []int64 {
	var out []int64
	for _, l := range r.lat {
		out = append(out, l...)
	}
	return out
}

// backlogGrew reports whether the outstanding-request count rose within
// a phase: the mean over its last third exceeds that over its first
// third by more than half, plus a small absolute slack for the noise of
// a nearly idle connection.
func backlogGrew(samples []inflightSample, start, end int64) bool {
	third := (end - start) / 3
	var first, last, nf, nl float64
	for _, s := range samples {
		switch {
		case s.at < start+third:
			first += float64(s.n)
			nf++
		case s.at >= end-third:
			last += float64(s.n)
			nl++
		}
	}
	if nf == 0 || nl == 0 {
		return false
	}
	first, last = first/nf, last/nl
	return last > 1.5*first+4
}

// readBack reads every key through cross-slot MGETs over c and checks
// each value against the ledger.
func readBack(e *env, c *client) *connResult {
	r := &connResult{}
	names := e.ks.names
	for lo := 0; lo < len(names); lo += prefillGroup {
		hi := min(lo+prefillGroup, len(names))
		argv := append([][]byte{cmdMGET}, names[lo:hi]...)
		floors := make([]int64, hi-lo)
		for k := lo; k < hi; k++ {
			floors[k-lo] = e.led.floorOf(k)
		}
		r.attempted += int64(hi - lo)
		err := c.w.WriteCommand(argv...)
		if err == nil {
			err = c.w.Flush()
		}
		var v resp.Value
		if err == nil {
			v, err = c.r.ReadValue()
		}
		if err != nil {
			r.fail("read-back: %v", err)
			return r
		}
		if v.Type != resp.Array || len(v.Array) != hi-lo {
			r.fail("read-back: MGET replied %.80s", v.String())
			continue
		}
		for i, el := range v.Array {
			if el.Type != resp.BulkString || el.Null {
				r.fail("read-back: key %s missing", names[lo+i])
			} else if err := e.led.checkRead(lo+i, el.Str, e.mix.valueSize, floors[i]); err != nil {
				r.fail("read-back: %v", err)
			}
		}
	}
	return r
}

// percentile returns the q-quantile of sorted (nearest rank).
func percentile(sorted []int64, q float64) int64 {
	if len(sorted) == 0 {
		return 0
	}
	i := int(math.Ceil(q*float64(len(sorted)))) - 1
	i = max(0, min(i, len(sorted)-1))
	return sorted[i]
}
