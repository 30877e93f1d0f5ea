package main

import (
	"fmt"
	"io"
	"math"
	"net"
	"os"
	"path/filepath"
	"runtime"

	alex "repro"
	"repro/server"
)

// The ladder replays one single-connection stream up the rungs, each on
// one goroutine unless noted; the difference between adjacent rungs is
// that layer's cost. Pass p runs stream in.ladder[p], so passes that
// share a store insert disjoint keys and every SET is new.
const (
	passIndex     = iota // bare alex.Index
	passSharded          // ShardedIndex, optimistic reads
	passLocked           // ShardedIndex, SetOptimisticReads(false)
	passSharded2a        // ShardedIndex, optimistic, 2 goroutines (with 2b)
	passSharded2b        //
	passLocked2a         // ShardedIndex, locked, 2 goroutines (with 2b)
	passLocked2b         //
	passHandle           // server.Handle over an in-memory stream
	passTCP              // server over loopback TCP
	passDurable          // DurableIndex under kv-durable's policy
	passAlways           // DurableIndex with fsync=always (kv-durable)
)

// rung is the outcome of one ladder pass.
type rung struct {
	med    [numKinds]float64 // median ns per op kind
	ops    int
	allocs float64           // heap allocations per op
	self   [numKinds]float64 // median server self time (Handle rung)

	attempted, failed int
	err               error
}

// runRung replays stream on the calling goroutine against idx and
// returns the per-kind medians.
func (r *runner) runRung(idx indexStore, stream []op) rung {
	rec := newRecorder(len(stream), false)
	before := readRuntime()
	runInProc(idx, stream, r.clk, timing{window: math.MaxInt64 / 4, windows: 1}, rec)
	rt := readRuntime().sub(before)
	out := medians(stream, rec)
	out.allocs = ratio(rt.allocs, float64(len(rec.durs)))
	out.attempted, out.failed, out.err = len(rec.durs), rec.failed, rec.err
	// A pass lasts milliseconds, so one burst of noise can move its
	// median. GETs can be replayed: the GET figure is the median over
	// the pass and readReplays replays of its reads.
	reads := make([]op, 0, len(stream))
	for _, o := range stream {
		if o.kind == opGet {
			reads = append(reads, o)
		}
	}
	gets := []float64{out.med[opGet]}
	for i := 0; i < readReplays; i++ {
		rr := newRecorder(len(reads), false)
		runInProc(idx, reads, r.clk, timing{window: math.MaxInt64 / 4, windows: 1}, rr)
		out.attempted, out.failed = out.attempted+len(rr.durs), out.failed+rr.failed
		if out.err == nil {
			out.err = rr.err
		}
		gets = append(gets, medians(reads, rr).med[opGet])
	}
	out.med[opGet] = median(gets)
	return out
}

const readReplays = 4

func medians(stream []op, rec *recorder) rung {
	var per [numKinds][]float64
	for i, d := range rec.durs {
		per[stream[i].kind] = append(per[stream[i].kind], float64(d))
	}
	var out rung
	for k := range per {
		out.med[k] = percentile(per[k], 0.5)
	}
	out.ops = len(rec.durs)
	return out
}

// warmReads replays the stream's GETs once, untimed, so the first pass
// on a fresh store does not pay for cold caches alone.
func warmReads(idx indexStore, stream []op) {
	for _, o := range stream {
		if o.kind == opGet {
			idx.Get(o.key)
		}
	}
}

// memConn feeds server.Handle one request per Read on the caller's
// goroutine and captures its replies, timing each request from the
// Read that hands it over to the Read that asks for the next one.
type memConn struct {
	c      client
	ops    []op
	arena  []byte
	off    []int32
	next   int
	start  int64
	clk    clock
	rec    *recorder
	closed bool
}

func (m *memConn) Read(p []byte) (int, error) {
	now := m.clk.now()
	if m.next > 0 && !m.closed {
		m.rec.starts = append(m.rec.starts, m.start)
		m.rec.durs = append(m.rec.durs, uint32(min(now-m.start, math.MaxUint32)))
		if err := m.c.checkReply(&m.ops[m.next-1], m.c.reply); err != nil {
			m.rec.fail(err)
		}
		m.c.reply = m.c.reply[:0]
	}
	if m.next == len(m.ops) {
		m.closed = true
		return 0, io.EOF
	}
	req := m.arena[m.off[m.next]:m.off[m.next+1]]
	if len(p) < len(req) {
		return 0, fmt.Errorf("read buffer of %d bytes for a %d-byte request", len(p), len(req))
	}
	n := copy(p, req)
	m.next++
	m.start = m.clk.now()
	return n, nil
}

func (m *memConn) Write(p []byte) (int, error) {
	m.c.reply = append(m.c.reply, p...)
	return len(p), nil
}

// handleRung runs stream through server.Handle over st with a traced
// store, so the server's self time is each request minus its store call.
func (r *runner) handleRung(st server.Store, stream []op) rung {
	arena, off := requests(stream)
	rec := newRecorder(len(stream), true)
	tst, ts := traceStore(st, r.clk, len(stream))
	m := &memConn{ops: stream, arena: arena, off: off, clk: r.clk, rec: rec}
	before := readRuntime()
	server.New(tst).Handle(m)
	rt := readRuntime().sub(before)
	out := medians(stream, rec)
	out.attempted, out.failed, out.err = len(stream), len(stream)-len(rec.durs)+rec.failed, rec.err
	out.allocs = ratio(rt.allocs, float64(len(rec.durs)))
	self := selfTimes(stream, rec, ts.spans)
	for k := range self {
		out.self[k] = percentile(self[k], 0.5)
	}
	return out
}

// tcpRung runs stream over one loopback connection to a server over st.
func (r *runner) tcpRung(st server.Store, stream []op) (rung, error) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return rung{}, err
	}
	srv := server.New(st)
	done := make(chan error, 1)
	go func() { done <- srv.Serve(ln) }()
	defer func() {
		ln.Close()
		<-done
		srv.Close()
	}()
	c, err := dial(ln.Addr().String())
	if err != nil {
		return rung{}, err
	}
	defer c.conn.Close()
	arena, off := requests(stream)
	rec := newRecorder(len(stream), false)
	runClient(c, stream, arena, off, r.clk, timing{window: math.MaxInt64 / 4, windows: 1}, rec)
	out := medians(stream, rec)
	out.attempted, out.failed, out.err = len(stream), len(stream)-len(rec.durs)+rec.failed, rec.err
	return out, nil
}

// durableRung replays stream on a fresh DurableIndex under policy.
func (r *runner) durableRung(dir string, policy alex.FsyncPolicy, stream []op) (rung, error) {
	d, err := openDurable(dir, policy, 0, nil)
	if err != nil {
		return rung{}, err
	}
	preload(d, r.in.load, r.payloads)
	warmReads(d, r.in.ladder[passIndex])
	rg := r.runRung(d, stream)
	if err := d.Close(); err != nil {
		return rung{}, err
	}
	return rg, os.RemoveAll(dir)
}

// ladderResult holds the rungs one traced run measures.
type ladderResult struct {
	rungs        [passAlways + 1]rung
	predLog2Err  float64 // mean log2(1+prediction error) over the stream's reads
	contention   float64 // 2-goroutine ÷ 1-goroutine GET median, optimistic
	lockedOverOp float64 // locked ÷ optimistic GET median, 2 goroutines
}

// ladder builds fresh stores from the workload's preload and replays
// the ladder streams up the rungs.
func (r *runner) ladder() (*ladderResult, error) {
	var lr ladderResult
	in := r.in

	ix := alex.New(alex.WithSplitOnInsert())
	if r.s.bulk {
		var err error
		if ix, err = alex.Load(in.load, r.payloads, alex.WithSplitOnInsert()); err != nil {
			return nil, err
		}
	} else {
		preload(ix, in.load, r.payloads)
	}
	warmReads(ix, in.ladder[passIndex])
	lr.rungs[passIndex] = r.runRung(ix, in.ladder[passIndex])
	var sum float64
	var n int
	for _, o := range in.ladder[passIndex] {
		if o.kind != opGet || n == 10000 {
			continue
		}
		if e, ok := ix.PredictionError(o.key); ok {
			sum += math.Log2(1 + float64(e))
			n++
		}
	}
	lr.predLog2Err = ratio(sum, float64(n))
	r.check(ix.CheckInvariants())
	ix = nil
	runtime.GC()

	sh := alex.NewSharded(0, alex.WithSplitOnInsert())
	if r.s.bulk {
		var err error
		if sh, err = alex.LoadSharded(0, in.load, r.payloads, alex.WithSplitOnInsert()); err != nil {
			return nil, err
		}
	} else {
		preload(sh, in.load, r.payloads)
	}
	warmReads(sh, in.ladder[passIndex])
	lr.rungs[passSharded] = r.runRung(sh, in.ladder[passSharded])
	sh.SetOptimisticReads(false)
	lr.rungs[passLocked] = r.runRung(sh, in.ladder[passLocked])
	for _, pair := range [][2]int{{passLocked2a, passLocked2b}, {passSharded2a, passSharded2b}} {
		sh.SetOptimisticReads(pair[0] == passSharded2a)
		parallel(2, func(g int) {
			lr.rungs[pair[g]] = r.runRung(sh, in.ladder[pair[g]])
		})
	}
	two := func(a, b int) float64 {
		return (lr.rungs[a].med[opGet] + lr.rungs[b].med[opGet]) / 2
	}
	lr.contention = ratio(two(passSharded2a, passSharded2b), lr.rungs[passSharded].med[opGet])
	lr.lockedOverOp = ratio(two(passLocked2a, passLocked2b), two(passSharded2a, passSharded2b))

	// The Handle and TCP rungs sit on the workload's own kind of store.
	var st server.Store = sh
	if r.s.durable {
		st, sh = nil, nil
		runtime.GC()
		dir := filepath.Join(r.root, "data", fmt.Sprintf("%s-%d-ladder", r.s.name, os.Getpid()))
		if err := os.RemoveAll(dir); err != nil {
			return nil, err
		}
		defer os.RemoveAll(dir)
		always, err := r.durableRung(filepath.Join(dir, "always"), alex.FsyncAlways, in.ladder[passAlways])
		if err != nil {
			return nil, err
		}
		lr.rungs[passAlways] = always
		d, err := openDurable(dir, durablePolicy, 0, nil)
		if err != nil {
			return nil, err
		}
		preload(d, in.load, r.payloads)
		warmReads(d, in.ladder[passIndex])
		lr.rungs[passDurable] = r.runRung(d, in.ladder[passDurable])
		st = d
		defer func() {
			if err := d.Close(); err != nil {
				r.check(err)
			}
		}()
	}
	lr.rungs[passHandle] = r.handleRung(st, in.ladder[passHandle])
	tcp, err := r.tcpRung(st, in.ladder[passTCP])
	if err != nil {
		return nil, err
	}
	lr.rungs[passTCP] = tcp
	for _, rg := range lr.rungs {
		r.note(rg.attempted, rg.failed, rg.err)
	}
	return &lr, nil
}
