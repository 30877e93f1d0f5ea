package main

import (
	"bufio"
	"bytes"
	"errors"
	"fmt"
	"math"
	"net"
	"slices"
	"strconv"
	"sync"
	"time"
	"unsafe"
)

// clock reads nanoseconds since a run's base time with one monotonic
// clock read.
type clock struct{ base time.Time }

func (c clock) now() int64 { return int64(time.Since(c.base)) }

// timing fixes a phase's schedule in clock time: ops before warmEnd
// warm caches and are not measured; the measured part is split into
// windows so a latency percentile can be reported as the median over
// windows, which one stall cannot move.
type timing struct {
	warmEnd int64
	window  int64
	windows int
}

// recorder collects one connection's latencies in stream order:
// durs[i] belongs to stream op i, and marks[w] is the number of ops
// finished when window w began (marks[0] ends the warm-up).
type recorder struct {
	durs   []uint32
	starts []int64 // traced runs only: request start times
	marks  []int
	failed int
	// err is the first failure seen, for the report.
	err error
	// sizes, if set, reads the store's sizes as the ops complete.
	sizes *sizer
}

func newRecorder(n int, traced bool) *recorder {
	r := &recorder{durs: make([]uint32, 0, n)}
	if traced {
		r.starts = make([]int64, 0, n)
	}
	return r
}

func (r *recorder) fail(err error) {
	r.failed++
	if r.err == nil {
		r.err = err
	}
}

// advance records window boundaries passed by now; it reports whether
// the phase is over.
func (r *recorder) advance(t timing, now int64) bool {
	for len(r.marks) <= t.windows {
		next := t.warmEnd + int64(len(r.marks))*t.window
		if now < next {
			return false
		}
		r.marks = append(r.marks, len(r.durs))
	}
	return true
}

// indexStore is the in-process surface index-churn and the ladder
// call; alex.Index, alex.ShardedIndex and alex.DurableIndex have it.
type indexStore interface {
	Get(key float64) (uint64, bool)
	Insert(key float64, payload uint64) bool
	ScanNInto(start float64, max int, keys []float64, payloads []uint64) ([]float64, []uint64)
}

// runInProc replays ops against idx on the calling goroutine until the
// phase ends or the stream runs out. One clock read per op: an op's
// latency runs from the previous op's end to its own.
func runInProc(idx indexStore, ops []op, clk clock, t timing, rec *recorder) {
	var sk []float64
	var sp []uint64
	t0 := clk.now()
	for i := range ops {
		o := &ops[i]
		switch o.kind {
		case opGet:
			if v, ok := idx.Get(o.key); !ok || v != payloadOf(o.key) {
				rec.fail(fmt.Errorf("get %v: got %d,%v", o.key, v, ok))
			}
		case opSet:
			if !idx.Insert(o.key, payloadOf(o.key)) {
				rec.fail(fmt.Errorf("insert %v: key already present", o.key))
			}
		case opScan:
			sk, sp = idx.ScanNInto(o.key, int(o.n), sk[:0], sp[:0])
			if err := checkScan(o, sk, sp); err != nil {
				rec.fail(err)
			}
		}
		t1 := clk.now()
		if rec.starts != nil {
			rec.starts = append(rec.starts, t0)
		}
		rec.durs = append(rec.durs, uint32(min(t1-t0, math.MaxUint32)))
		t0 = t1
		if rec.advance(t, t1) {
			return
		}
		if rec.sizes.after(len(rec.durs)) {
			t0 = clk.now()
		}
	}
}

// checkScan verifies a SCAN result: it starts at the (stored) start
// key, ascends, holds at most n keys and every payload matches.
func checkScan(o *op, keys []float64, vals []uint64) error {
	if len(keys) == 0 || len(keys) > int(o.n) || keys[0] != o.key {
		return fmt.Errorf("scan %v %d: %d keys, first %v", o.key, o.n, len(keys), keys)
	}
	for i, k := range keys {
		if (i > 0 && k <= keys[i-1]) || vals[i] != payloadOf(k) {
			return fmt.Errorf("scan %v %d: key %d (%v) out of order or bad payload", o.key, o.n, i, k)
		}
	}
	return nil
}

// client is one closed-loop protocol connection.
type client struct {
	conn  net.Conn
	r     *bufio.Reader
	reply []byte
	keys  []float64
	vals  []uint64
}

func dial(addr string) (*client, error) {
	conn, err := net.Dial("tcp", addr)
	if err != nil {
		return nil, err
	}
	return newClient(conn), nil
}

func newClient(conn net.Conn) *client {
	return &client{conn: conn, r: bufio.NewReaderSize(conn, 64<<10)}
}

// roundTrip sends one request line and reads its whole reply into
// c.reply: one line, or for SCAN every line through END.
func (c *client) roundTrip(req []byte, kind opKind) error {
	if _, err := c.conn.Write(req); err != nil {
		return err
	}
	c.reply = c.reply[:0]
	for {
		line, err := c.r.ReadSlice('\n')
		if err != nil {
			return err
		}
		c.reply = append(c.reply, line...)
		if kind != opScan || string(line) == "END\n" || bytes.HasPrefix(line, []byte("ERR")) {
			return nil
		}
	}
}

// checkReply verifies the reply to o against the protocol of
// cmd/alexkv.
func (c *client) checkReply(o *op, reply []byte) error {
	switch o.kind {
	case opGet:
		var want [32]byte
		w := strconv.AppendUint(append(want[:0], "VALUE "...), payloadOf(o.key), 10)
		if !bytes.Equal(reply, append(w, '\n')) {
			return fmt.Errorf("GET %v: reply %q", o.key, reply)
		}
	case opSet:
		if string(reply) != "OK inserted\n" {
			return fmt.Errorf("SET %v: reply %q", o.key, reply)
		}
	case opScan:
		c.keys, c.vals = c.keys[:0], c.vals[:0]
		rest := reply
		for {
			nl := bytes.IndexByte(rest, '\n')
			if nl < 0 {
				return fmt.Errorf("SCAN %v: truncated reply", o.key)
			}
			line := rest[:nl]
			rest = rest[nl+1:]
			if string(line) == "END" {
				break
			}
			rest, ok1 := bytes.CutPrefix(line, []byte("KEY "))
			kf, vf, ok2 := bytes.Cut(rest, []byte(" "))
			if !ok1 || !ok2 || len(kf) == 0 || len(vf) == 0 {
				return fmt.Errorf("SCAN %v: line %q", o.key, line)
			}
			// unsafe.String avoids copying each field; the parsers do not
			// retain their argument.
			k, err1 := strconv.ParseFloat(unsafe.String(&kf[0], len(kf)), 64)
			v, err2 := strconv.ParseUint(unsafe.String(&vf[0], len(vf)), 10, 64)
			if err := errors.Join(err1, err2); err != nil {
				return fmt.Errorf("SCAN %v: %w", o.key, err)
			}
			c.keys, c.vals = append(c.keys, k), append(c.vals, v)
		}
		if len(rest) != 0 {
			return fmt.Errorf("SCAN %v: bytes after END", o.key)
		}
		return checkScan(o, c.keys, c.vals)
	}
	return nil
}

// runClient replays ops over c until the phase ends or the stream runs
// out. A request's latency runs from just before its write to just
// after the last byte of its reply is read; checking comes after.
func runClient(c *client, ops []op, arena []byte, off []int32, clk clock, t timing, rec *recorder) {
	for i := range ops {
		o := &ops[i]
		t0 := clk.now()
		err := c.roundTrip(arena[off[i]:off[i+1]], o.kind)
		t1 := clk.now()
		if rec.starts != nil {
			rec.starts = append(rec.starts, t0)
		}
		rec.durs = append(rec.durs, uint32(min(t1-t0, math.MaxUint32)))
		if err != nil {
			// The connection is gone: the rest of the stream cannot be
			// attempted on it.
			rec.fail(fmt.Errorf("request %d: %w", i, err))
			return
		}
		if err := c.checkReply(o, c.reply); err != nil {
			rec.fail(err)
		}
		if rec.advance(t, t1) {
			return
		}
		rec.sizes.after(len(rec.durs))
	}
}

// phaseStats are the latency and throughput figures of one phase.
type phaseStats struct {
	throughput float64 // ops/s, median over the measured windows
	// p50 and p99 per kind are medians over the measured windows, in ns.
	p50, p99  [numKinds]float64
	winP99    [numKinds][]float64
	winRate   []float64     // ops/s per measured window
	count     [numKinds]int // measured ops
	done      int           // ops finished, warm-up included
	failed    int
	exhausted bool // a stream ran out before the phase ended
	err       error
}

// summarize merges the connections' recorders. It expects each stream
// to have been run by the recorder at the same index.
func summarize(streams [][]op, recs []*recorder, t timing) phaseStats {
	var ps phaseStats
	var winP50, winP99 [numKinds][]float64
	var buf [numKinds][]uint32
	var winRate []float64
	for w := 0; w < t.windows; w++ {
		for k := range buf {
			buf[k] = buf[k][:0]
		}
		ops := 0
		for c, r := range recs {
			if len(r.marks) <= w+1 {
				continue
			}
			ops += r.marks[w+1] - r.marks[w]
			for i := r.marks[w]; i < r.marks[w+1]; i++ {
				k := streams[c][i].kind
				buf[k] = append(buf[k], r.durs[i])
			}
		}
		for k := range buf {
			if len(buf[k]) == 0 {
				continue
			}
			slices.Sort(buf[k])
			ps.count[k] += len(buf[k])
			winP50[k] = append(winP50[k], float64(quantile(buf[k], 0.50)))
			winP99[k] = append(winP99[k], float64(quantile(buf[k], 0.99)))
		}
		winRate = append(winRate, float64(ops)/(float64(t.window)/1e9))
	}
	for k := range winP50 {
		ps.p50[k] = median(winP50[k])
		ps.p99[k] = median(winP99[k])
		ps.winP99[k] = winP99[k]
	}
	for _, r := range recs {
		ps.done += len(r.durs)
		ps.failed += r.failed
		if ps.err == nil {
			ps.err = r.err
		}
		if len(r.marks) <= t.windows {
			ps.exhausted = true
		}
	}
	// Like the percentiles, throughput is the median over windows, so a
	// stall in one window does not move it.
	ps.throughput = median(winRate)
	ps.winRate = winRate
	return ps
}

// quantile returns the q-quantile of sorted values (nearest rank).
func quantile[T uint32 | int64 | float64](sorted []T, q float64) T {
	if len(sorted) == 0 {
		return 0
	}
	i := int(math.Ceil(q*float64(len(sorted)))) - 1
	return sorted[max(0, min(i, len(sorted)-1))]
}

// median returns the median of vs (the mean of the middle two for an
// even count), or 0 for none.
func median(vs []float64) float64 {
	if len(vs) == 0 {
		return 0
	}
	s := slices.Clone(vs)
	slices.Sort(s)
	if n := len(s); n%2 == 1 {
		return s[n/2]
	} else {
		return (s[n/2-1] + s[n/2]) / 2
	}
}

// parallel runs f(0..n-1) on n goroutines and waits for all of them.
func parallel(n int, f func(i int)) {
	var wg sync.WaitGroup
	wg.Add(n)
	for i := 0; i < n; i++ {
		go func() {
			defer wg.Done()
			f(i)
		}()
	}
	wg.Wait()
}
