package main

import (
	"bytes"
	"fmt"
	"strconv"
	"sync"
	"sync/atomic"

	"memorydb/internal/crc16"
)

// numKeys is the keyspace every workload shares.
const numKeys = 20000

// keyspace holds numKeys key names chosen so that every one of the
// 16,384 hash slots owns at least one key: a workload then reaches every
// execution shard of the node whatever the shard count.
type keyspace struct {
	names [][]byte
}

func newKeyspace() *keyspace {
	ks := &keyspace{names: make([][]byte, 0, numKeys)}
	covered := make([]bool, crc16.NumSlots)
	var spare [][]byte
	left := crc16.NumSlots
	for j := 0; left > 0; j++ {
		name := []byte("key:" + strconv.Itoa(j))
		if s := crc16.Slot(string(name)); !covered[s] {
			covered[s] = true
			left--
			ks.names = append(ks.names, name)
		} else if len(spare) < numKeys-crc16.NumSlots {
			spare = append(spare, name)
		}
	}
	ks.names = append(ks.names, spare...)
	return ks
}

// Values encode the key and the write that produced them, so a reader
// can tell exactly which write it observed: "<key index>:<seq>:" followed
// by a filler derived from seq, padded to the workload's value size.

func makeValue(key int, seq int64, size int) []byte {
	v := make([]byte, 0, size)
	v = strconv.AppendInt(v, int64(key), 10)
	v = append(v, ':')
	v = strconv.AppendInt(v, seq, 10)
	v = append(v, ':')
	for i := len(v); i < size; i++ {
		v = append(v, byte('a'+(seq+int64(i))%26))
	}
	return v
}

// parseValue recovers (key, seq) from a value and checks that its body
// is byte-for-byte the value makeValue produces for them.
func parseValue(v []byte, size int) (key int, seq int64, err error) {
	k, rest, ok1 := leadingInt(v)
	s, filler, ok2 := leadingInt(rest)
	if !ok1 || !ok2 || len(v) != size {
		return 0, 0, fmt.Errorf("malformed value %.40q", v)
	}
	for i := size - len(filler); i < size; i++ {
		if v[i] != byte('a'+(s+int64(i))%26) {
			return 0, 0, fmt.Errorf("value body for key %d seq %d is corrupt", k, s)
		}
	}
	return int(k), s, nil
}

// leadingInt parses the decimal digits before the first ':' of b and
// returns the bytes after that ':'.
func leadingInt(b []byte) (n int64, rest []byte, ok bool) {
	i := bytes.IndexByte(b, ':')
	if i <= 0 || i > 18 {
		return 0, nil, false
	}
	for _, c := range b[:i] {
		if c < '0' || c > '9' {
			return 0, nil, false
		}
		n = n*10 + int64(c-'0')
	}
	return n, b[i+1:], true
}

// ledger records every write the generator issues, so each read can be
// checked against the writes it must not predate. Times are nanoseconds
// on the generator's monotonic clock; issue is taken before the command
// is written to the socket and ack after its reply is read, so an
// observed "acked before issued" order is a real one.
type ledger struct {
	mu    sync.Mutex // serializes issue
	next  atomic.Int64
	pages [ledgerPages]atomic.Pointer[ledgerPage]
	// floor[key] is the latest issue time among acknowledged writes to
	// key: a read sent after that ack must return a write that was not
	// itself acknowledged before that issue time.
	floor []atomic.Int64
}

const (
	ledgerPageBits = 16
	ledgerPages    = 1 << 10 // 64M writes per run at most
)

type ledgerPage [1 << ledgerPageBits]writeRec

type writeRec struct {
	key    atomic.Int64
	issued atomic.Int64
	acked  atomic.Int64 // 0 until acknowledged
}

func newLedger(keys int) *ledger {
	return &ledger{floor: make([]atomic.Int64, keys)}
}

func (l *ledger) rec(seq int64) *writeRec {
	p := l.pages[seq>>ledgerPageBits].Load()
	if p == nil {
		return nil
	}
	return &p[seq&(1<<ledgerPageBits-1)]
}

// issue allocates the sequence number of a new write to key.
func (l *ledger) issue(key int, now int64) int64 {
	l.mu.Lock()
	seq := l.next.Load()
	pg := seq >> ledgerPageBits
	if pg >= ledgerPages {
		l.mu.Unlock()
		panic("perfbench: write ledger full")
	}
	if l.pages[pg].Load() == nil {
		l.pages[pg].Store(new(ledgerPage))
	}
	l.next.Store(seq + 1)
	l.mu.Unlock()
	r := l.rec(seq)
	r.key.Store(int64(key))
	r.issued.Store(now)
	return seq
}

// ack marks seq acknowledged at now and raises its key's floor.
func (l *ledger) ack(seq, now int64) {
	r := l.rec(seq)
	r.acked.Store(now)
	f := &l.floor[r.key.Load()]
	issued := r.issued.Load()
	for {
		cur := f.Load()
		if issued <= cur || f.CompareAndSwap(cur, issued) {
			return
		}
	}
}

// floorOf is the staleness floor a read of key sent now must respect.
func (l *ledger) floorOf(key int) int64 { return l.floor[key].Load() }

// checkRead verifies that a read of key, sent when the key's floor was
// floor, returned a value written to that key that is not older than
// any write acknowledged before the read was sent.
func (l *ledger) checkRead(key int, v []byte, size int, floor int64) error {
	k, seq, err := parseValue(v, size)
	if err != nil {
		return err
	}
	if k != key {
		return fmt.Errorf("read of key %d returned the value of key %d", key, k)
	}
	if seq < 0 || seq >= l.next.Load() {
		return fmt.Errorf("read of key %d returned never-issued write %d", key, seq)
	}
	r := l.rec(seq)
	if int(r.key.Load()) != key {
		return fmt.Errorf("read of key %d returned write %d, which was to key %d", key, seq, r.key.Load())
	}
	if a := r.acked.Load(); a != 0 && a < floor {
		return fmt.Errorf("stale read of key %d: write %d was acknowledged before a newer acknowledged write was issued", key, seq)
	}
	return nil
}
