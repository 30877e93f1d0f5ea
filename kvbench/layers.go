package main

import (
	"fmt"
	"path/filepath"
	"runtime"
	"runtime/metrics"
	"slices"

	alex "repro"
	"repro/internal/faultfs"
)

// runtimeDelta is the change in Go runtime counters over an interval.
type runtimeDelta struct {
	gcCPU, totalCPU float64 // seconds
	gcCycles        float64
	allocs          float64 // heap objects allocated
	heapBytes       float64 // live heap object bytes at the end (not a delta)
}

var runtimeSamples = []string{
	"/cpu/classes/gc/total:cpu-seconds",
	"/cpu/classes/total:cpu-seconds",
	"/gc/cycles/total:gc-cycles",
	"/gc/heap/allocs:objects",
	"/memory/classes/heap/objects:bytes",
}

func readRuntime() runtimeDelta {
	s := make([]metrics.Sample, len(runtimeSamples))
	for i, name := range runtimeSamples {
		s[i].Name = name
	}
	metrics.Read(s)
	v := func(i int) float64 {
		switch s[i].Value.Kind() {
		case metrics.KindUint64:
			return float64(s[i].Value.Uint64())
		case metrics.KindFloat64:
			return s[i].Value.Float64()
		}
		return 0
	}
	return runtimeDelta{v(0), v(1), v(2), v(3), v(4)}
}

func (a runtimeDelta) sub(b runtimeDelta) runtimeDelta {
	return runtimeDelta{a.gcCPU - b.gcCPU, a.totalCPU - b.totalCPU, a.gcCycles - b.gcCycles, a.allocs - b.allocs, a.heapBytes}
}

// liveHeap returns the live heap bytes after a full collection.
func liveHeap() float64 {
	runtime.GC()
	return readRuntime().heapBytes
}

// tracedRun is the --trace 1 sequence. Phase A repeats the untraced
// run (its throughput is the base of trace.overhead, and its counters
// are unperturbed by tracing); phase B replays the same streams on a
// fresh store with every span recorded; then the ladder replays one
// stream up the rungs. Spans are written out at the end.
func (r *runner) tracedRun() (metricSet, error) {
	heapBase := liveHeap()
	b, setupT, preloadT, err := r.setup()
	if err != nil {
		return nil, err
	}
	heapStore := liveHeap() - heapBase
	pa, err := r.runPhase(b, false)
	if err != nil {
		return nil, err
	}
	e2e, extra, err := r.endToEnd(b, pa, setupT)
	if err != nil {
		return nil, err
	}
	e2e.print(r.out)
	extra.print(r.out)
	r.printCounts(pa)
	b = nil
	runtime.GC()

	var fs *tracedFS
	if r.s.durable {
		fs = &tracedFS{FS: faultfs.OS, clk: r.clk}
	}
	bb, err := r.build("traced", fs, r.s.ckptEvery)
	if err != nil {
		return nil, err
	}
	pb, err := r.runPhase(bb, true)
	if err != nil {
		return nil, err
	}
	if r.s.durable {
		if err := bb.discard(); err != nil {
			return nil, err
		}
	} else {
		r.verifyInMemory(bb, pb)
	}
	bb = nil
	runtime.GC()

	lr, err := r.ladder()
	if err != nil {
		return nil, err
	}
	if err := r.writeTrace(pb); err != nil {
		return nil, err
	}

	var ms metricSet
	r.serverLayers(&ms, lr)
	r.storeLayers(&ms, pb, lr)
	coreLayers(&ms, pa, lr)
	ms.add("load.ns_per_key", ratio(float64(preloadT), float64(len(r.in.load))), "ns")
	r.walLayers(&ms, pb)
	ms.add("gc.cpu_frac", ratio(pa.rt.gcCPU, pa.rt.totalCPU), "ratio")
	ms.add("gc.cycles", pa.rt.gcCycles, "count")
	ms.add("heap.bytes_per_key", ratio(heapStore, float64(len(r.in.load))), "B")
	ms.add("trace.overhead", ratio(pa.stats.throughput, pb.stats.throughput), "ratio")
	// The ungated end-to-end metrics travel with the per-layer ones,
	// reading 0 where the workload has none.
	for _, m := range []namedMetric{{"get_p99_us", 0, "us"}, {"set_p99_us", 0, "us"},
		{"scan_p50_us", 0, "us"}, {"scan_p99_us", 0, "us"}, {"recovery_s", 0, "s"}, {"disk_bytes_per_key", 0, "B"}} {
		ms.add(m.name, extra.get(m.name), m.unit)
	}
	ms.add("fail_ratio", ratio(float64(r.failed), float64(r.attempted)), "ratio")
	ms.print(r.out)
	r.printLadder(lr)
	return ms, nil
}

func (ms metricSet) get(name string) float64 {
	for _, m := range ms {
		if m.name == name {
			return m.value
		}
	}
	return 0
}

// serverLayers: the server's self time per request kind and its
// allocations, from the Handle rung, and loopback TCP's share of a GET.
func (r *runner) serverLayers(ms *metricSet, lr *ladderResult) {
	h := lr.rungs[passHandle]
	ms.add("server.self_ns_get", h.self[opGet], "ns")
	ms.add("server.self_ns_scan", h.self[opScan], "ns")
	ms.add("server.self_ns_set", h.self[opSet], "ns")
	ms.add("server.allocs_per_req", h.allocs, "count")
	ms.add("net.loopback_us", (lr.rungs[passTCP].med[opGet]-h.med[opGet])/1e3, "us")
}

// storeLayers: store spans from the traced phase (the server's calls
// into the store, or index-churn's calls into the index) and the
// router and seqlock figures from the ladder.
func (r *runner) storeLayers(ms *metricSet, pb *phase, lr *ladderResult) {
	var med [numKinds]float64
	if r.s.server {
		var spans []span
		for _, ts := range pb.stores {
			spans = append(spans, ts.spans...)
		}
		for k := range med {
			med[k] = percentile(spanDurations(spans, spStoreGet+uint8(k)), 0.5)
		}
	} else {
		// index-churn's index.<op> spans are its requests.
		for k := range med {
			var durs []uint32
			for c, rec := range pb.recs {
				for i, d := range rec.durs {
					if r.in.streams[c][i].kind == opKind(k) {
						durs = append(durs, d)
					}
				}
			}
			slices.Sort(durs)
			med[k] = float64(quantile(durs, 0.5))
		}
	}
	ms.add("store.get_ns", med[opGet], "ns")
	ms.add("store.scan_ns", med[opScan], "ns")
	ms.add("store.set_ns", med[opSet], "ns")
	ms.add("sharded.router_ns", lr.rungs[passSharded].med[opGet]-lr.rungs[passIndex].med[opGet], "ns")
	ms.add("sharded.contention_ratio", lr.contention, "ratio")
	ms.add("seqlock.locked_over_optimistic", lr.lockedOverOp, "ratio")
}

// coreLayers: structure-modification counts per thousand acknowledged
// inserts from the untraced phase's Stats() deltas, the tree's shape at
// the end of the run, the bare-Index rung and leaf prediction error.
func coreLayers(ms *metricSet, pa *phase, lr *ladderResult) {
	d := pa.statsDelta
	kins := float64(pa.sets) / 1e3
	ms.add("core.expands_per_kins", ratio(float64(d.Expands), kins), "count")
	ms.add("core.splits_per_kins", ratio(float64(d.Splits), kins), "count")
	ms.add("core.retrains_per_kins", ratio(float64(d.Retrains), kins), "count")
	ms.add("core.cost_retrains_per_kins", ratio(float64(d.CostRetrains), kins), "count")
	ms.add("leaf.shifts_per_insert", ratio(float64(d.Shifts), float64(pa.sets)), "count")
	ms.add("core.height", float64(d.Height), "count")
	ms.add("core.leaves", float64(d.NumLeaves), "count")
	ms.add("index.get_ns", lr.rungs[passIndex].med[opGet], "ns")
	ms.add("index.insert_ns", lr.rungs[passIndex].med[opSet], "ns")
	ms.add("leaf.bounded_share", ratio(float64(d.KeysBounded), float64(d.KeysTotal)), "ratio")
	p50, p99 := errPercentiles(d)
	ms.add("leaf.err_p50", p50, "slots")
	ms.add("leaf.err_p99", p99, "slots")
	ms.add("leaf.mean_log2_pred_err", lr.predLog2Err, "log2")
}

// errPercentiles reads leaf error-bound percentiles off Stats().ErrHist
// (power-of-two buckets), reporting each as its bucket's upper bound.
func errPercentiles(st alex.Stats) (p50, p99 float64) {
	var total uint64
	for _, c := range st.ErrHist {
		total += c
	}
	at := func(q float64) float64 {
		var seen uint64
		for i, c := range st.ErrHist {
			seen += c
			if float64(seen) >= q*float64(total) && c > 0 {
				if i == 0 {
					return 0
				}
				return float64(uint64(1)<<i - 1)
			}
		}
		return 0
	}
	return at(0.5), at(0.99)
}

// walLayers: group commit, fsync cost and checkpoints from the traced
// kv-durable phase; the other workloads have no WAL and report 0.
func (r *runner) walLayers(ms *metricSet, pb *phase) {
	var (
		writes, syncDur           float64
		syncs                     []float64
		windows                   [][2]int64
		ckptMs, ckptBytes         []float64
		open                      int64 = -1
		openBytes                 float64
		inside, outside           []float64
		fsyncsPer, bytesPer, sets float64
	)
	if r.s.durable {
		sets = float64(pb.sets)
		fsyncsPer = ratio(float64(pb.walAfter.Syncs-pb.walBefore.Syncs), sets)
		bytesPer = ratio(float64(pb.walAfter.Bytes-pb.walBefore.Bytes), sets)
		for _, s := range pb.tfs.spans {
			if s.start < pb.begin || s.start > pb.end {
				continue
			}
			switch {
			case s.class == fileWAL && s.name == spFSWrite:
				writes++
			case s.class == fileWAL && s.name == spFSSync:
				d := float64(s.end - s.start)
				syncs = append(syncs, d)
				syncDur += d
			case s.class == fileSnapshot && s.name == spFSOpen:
				open, openBytes = s.start, 0
			case s.class == fileSnapshot && s.name == spFSWrite && open >= 0:
				openBytes += float64(s.bytes)
			case s.class == fileSnapshot && s.name == spFSRename && open >= 0:
				windows = append(windows, [2]int64{open, s.end})
				ckptMs = append(ckptMs, float64(s.end-open)/1e6)
				ckptBytes = append(ckptBytes, openBytes)
				open = -1
			}
		}
		for c, rec := range pb.recs {
			for i, d := range rec.durs {
				if r.in.streams[c][i].kind != opSet {
					continue
				}
				s, e := rec.starts[i], rec.starts[i]+int64(d)
				hit := false
				for _, w := range windows {
					if s < w[1] && e > w[0] {
						hit = true
						break
					}
				}
				if hit {
					inside = append(inside, float64(d))
				} else {
					outside = append(outside, float64(d))
				}
			}
		}
	}
	ms.add("wal.fsyncs_per_set", fsyncsPer, "ratio")
	ms.add("wal.writes_per_set", ratio(writes, sets), "ratio")
	ms.add("wal.bytes_per_set", bytesPer, "B")
	ms.add("wal.fsync_p50_us", percentile(syncs, 0.5)/1e3, "us")
	ms.add("wal.fsync_p99_us", percentile(syncs, 0.99)/1e3, "us")
	ms.add("wal.fsync_share", ratio(syncDur, float64(pb.end-pb.begin)), "ratio")
	ms.add("checkpoint.count", float64(pb.ckpts), "count")
	ms.add("checkpoint.ms", median(ckptMs), "ms")
	ms.add("checkpoint.bytes", median(ckptBytes), "B")
	ms.add("checkpoint.set_p99_ratio", ratio(percentile(inside, 0.99), percentile(outside, 0.99)), "ratio")
	ms.add("recovery.replayed_records", float64(r.replayed), "count")
	ms.add("recovery.ns_per_record", r.perRecord, "ns")
}

// writeTrace writes phase B's spans to .bench_build/spans/<workload>.spans.
func (r *runner) writeTrace(pb *phase) error {
	var secs []spanSection
	for c, rec := range pb.recs {
		var store []span
		base := spIndexGet
		if r.s.server {
			store, base = pb.stores[c].spans, spClientGet
		}
		secs = append(secs, requestSection(fmt.Sprintf("conn%d", c), r.in.streams[c], rec, store, base))
	}
	if fs := pb.tfs; fs != nil {
		secs = append(secs, spanSection{"fs", len(fs.spans), func(i int) span { return fs.spans[i].span }})
	}
	path := filepath.Join(r.root, "spans", r.s.name+".spans")
	if err := writeSpans(path, secs); err != nil {
		return err
	}
	r.printf("spans written to %s\n", path)
	return nil
}

// printLadder prints the rung medians, for the README's findings.
func (r *runner) printLadder(lr *ladderResult) {
	names := [...]string{"index", "sharded", "sharded-locked", "sharded-2g", "sharded-2g", "locked-2g", "locked-2g",
		"handle", "tcp", "durable", "durable-always"}
	for p, rg := range lr.rungs {
		if rg.ops == 0 {
			continue
		}
		r.printf("rung %-15s ops=%-6d get_ns=%-8.0f set_ns=%-8.0f scan_ns=%-8.0f\n", names[p], rg.ops,
			rg.med[opGet], rg.med[opSet], rg.med[opScan])
	}
}
