package main

import (
	"context"
	"errors"
	"io"
	"net"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"memorydb/internal/resp"
	"memorydb/internal/server"
)

// stallBackend answers every SET with +OK at once, except call number
// stallAt, which it holds for stall.
type stallBackend struct {
	calls   atomic.Int64
	stallAt int64
	stall   time.Duration
}

func (b *stallBackend) Do(ctx context.Context, argv [][]byte, mode server.ReadMode) (resp.Value, error) {
	if b.calls.Add(1) == b.stallAt {
		time.Sleep(b.stall)
	}
	return resp.OK, nil
}

func (b *stallBackend) DoBatch(ctx context.Context, cmds [][][]byte, mode server.ReadMode) (resp.Value, error) {
	return resp.OK, nil
}

func testEnv() *env {
	return &env{ks: newKeyspace(), led: newLedger(numKeys), clk: newMonoClock(), mix: mix{getShare: 0, valueSize: 32}}
}

func TestOpenLoopStallShowsInLatency(t *testing.T) {
	const (
		rate    = 1000.0
		stallAt = 300
		stall   = 100 * time.Millisecond
	)
	b := &stallBackend{stallAt: stallAt, stall: stall}
	srv := server.New(server.Config{Addr: "127.0.0.1:0", Backend: b, Multiplex: true})
	if err := srv.Start(); err != nil {
		t.Fatal(err)
	}
	defer srv.Close()
	c, err := dial(srv.Addr().String())
	if err != nil {
		t.Fatal(err)
	}
	defer c.close()

	e := testEnv()
	ps := phaseSpec{id: 1, seed: 7, duration: time.Second, rate: rate}
	seed := streamSeed(ps.seed, ps.id, 0)
	r := runPhase(e, []*client{c}, ps)
	if r.failed != 0 {
		t.Fatalf("%d failures: %v", r.failed, r.errs)
	}
	lat := r.lat[opSet]

	// One connection replies in send order, so the i-th latency belongs
	// to the i-th arrival of the same schedule.
	s := newSchedule(seed, rate, e.mix)
	due := make([]time.Duration, len(lat))
	for i := range due {
		due[i], _, _ = s.next()
	}
	stallFrom := due[stallAt-1]
	var during, other []int64
	for i, l := range lat {
		if due[i] >= stallFrom && due[i] < stallFrom+stall {
			during = append(during, l)
		} else if due[i] > stallFrom+2*stall {
			other = append(other, l)
		}
	}
	if len(during) < 20 {
		t.Fatalf("only %d requests were due during the stall", len(during))
	}
	p99 := time.Duration(percentile(sortedCopy(during), 0.99))
	if p99 < stall*8/10 {
		t.Fatalf("p99 of requests due during a %v stall is %v; the stall is hidden", stall, p99)
	}
	// Each request due during the stall waits at least until it ends.
	for i, l := range lat {
		if due[i] >= stallFrom && due[i] < stallFrom+stall {
			if want := stallFrom + stall - due[i] - 5*time.Millisecond; time.Duration(l) < want {
				t.Fatalf("request due %v after the stall began took %v, want at least %v", due[i]-stallFrom, time.Duration(l), want)
			}
		}
	}
	if med := time.Duration(percentile(sortedCopy(other), 0.5)); med > 10*time.Millisecond {
		t.Fatalf("median latency away from the stall is %v; the stub should answer at once", med)
	}
}

func TestScheduleIsReproducible(t *testing.T) {
	m := mix{getShare: 0.8, zipf: true, valueSize: 100}
	type arrival struct {
		at   time.Duration
		kind opKind
		key  int
	}
	draw := func(seed int64) []arrival {
		s := newSchedule(seed, 500, m)
		out := make([]arrival, 2000)
		for i := range out {
			out[i].at, out[i].kind, out[i].key = s.next()
		}
		return out
	}
	a, b, c := draw(42), draw(42), draw(43)
	same := true
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("seed 42 drew %v then %v at arrival %d", a[i], b[i], i)
		}
		same = same && a[i] == c[i]
	}
	if same {
		t.Fatal("seeds 42 and 43 drew the same schedule")
	}
	// Closed loops draw their command sequence from the same generator.
	g1, g2 := newOpGen(5, m), newOpGen(5, m)
	for i := 0; i < 2000; i++ {
		k1, key1 := g1.next()
		k2, key2 := g2.next()
		if k1 != k2 || key1 != key2 {
			t.Fatalf("op %d differs between two generators with one seed", i)
		}
	}
}

// slowReplier is a RESP server that answers +OK to each command after a
// short delay and records how many commands were ever outstanding.
type slowReplier struct {
	ln      net.Listener
	maxOut  atomic.Int64
	replied atomic.Int64
	wg      sync.WaitGroup
}

func newSlowReplier(t *testing.T) *slowReplier {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	s := &slowReplier{ln: ln}
	s.wg.Add(1)
	go func() {
		defer s.wg.Done()
		conn, err := ln.Accept()
		if err != nil {
			return
		}
		defer conn.Close()
		r := resp.NewReader(conn)
		queue := make(chan struct{}, 1024) // far above any depth under test
		done := make(chan struct{})
		go func() {
			defer close(done)
			w := resp.NewWriter(conn)
			for range queue {
				time.Sleep(200 * time.Microsecond)
				// Count the reply before the client can see it, so a
				// command sent in answer to it is never counted early.
				s.replied.Add(1)
				if w.WriteValue(resp.OK) != nil || w.Flush() != nil {
					return
				}
			}
		}()
		var received int64
		for {
			if _, err := r.ReadCommand(); err != nil {
				if !errors.Is(err, io.EOF) {
					t.Logf("stub read: %v", err)
				}
				break
			}
			received++
			if out := received - s.replied.Load(); out > s.maxOut.Load() {
				s.maxOut.Store(out)
			}
			queue <- struct{}{}
		}
		close(queue)
		<-done
	}()
	return s
}

func TestClosedLoopNeverExceedsDepth(t *testing.T) {
	const depth = 8
	s := newSlowReplier(t)
	c, err := dial(s.ln.Addr().String())
	if err != nil {
		t.Fatal(err)
	}
	e := testEnv()
	r := runPhase(e, []*client{c}, phaseSpec{id: 1, seed: 3, duration: 300 * time.Millisecond, depth: depth})
	c.close()
	s.wg.Wait()
	s.ln.Close()
	if r.failed != 0 {
		t.Fatalf("%d failures: %v", r.failed, r.errs)
	}
	if r.maxOut > depth {
		t.Fatalf("generator had %d requests outstanding, depth is %d", r.maxOut, depth)
	}
	if got := s.maxOut.Load(); got > depth || got < depth/2 {
		t.Fatalf("server saw up to %d outstanding commands, want between %d and %d", got, depth/2, depth)
	}
}

func TestValueRoundTrip(t *testing.T) {
	for _, size := range []int{100, 1024} {
		v := makeValue(123, 4567, size)
		k, s, err := parseValue(v, size)
		if err != nil || k != 123 || s != 4567 {
			t.Fatalf("size %d: parsed (%d, %d, %v)", size, k, s, err)
		}
		for _, i := range []int{0, 4, 9, size - 1} {
			bad := append([]byte(nil), v...)
			bad[i] ^= 1
			if k, s, err := parseValue(bad, size); err == nil && k == 123 && s == 4567 {
				t.Fatalf("size %d: flipped byte %d went unnoticed", size, i)
			}
		}
	}
}
