// Command kvbench is the repository's benchmark. It runs one of three
// workloads against the system the way cmd/alexkv serves it, checks
// every reply, and prints the end-to-end metrics (or, with --trace 1,
// the per-layer metrics) as the last line of standard output:
//
//	bash kvbench/run.sh --workload kv-read --seed 1 --seconds 10 --trace 0
//
// "kvbench compare BASE NEW" compares two directories of saved outputs.
// README.md describes the workloads, the metrics and what each layer
// metric should move.
package main

import (
	"bufio"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"net"
	"os"
	"path/filepath"
	"runtime"
	"strconv"
	"strings"
	"syscall"
	"time"

	alex "repro"
	"repro/internal/faultfs"
	"repro/server"
)

func main() {
	if len(os.Args) > 1 && os.Args[1] == "compare" {
		os.Exit(compareMain(os.Args[2:], os.Stdout))
	}
	workload := flag.String("workload", "", "workload: kv-read, kv-durable or index-churn")
	seed := flag.Int64("seed", 1, "input seed")
	seconds := flag.Int("seconds", 10, "measured seconds per phase")
	trace := flag.Int("trace", 0, "1 = traced run reporting per-layer metrics")
	flag.Parse()
	s, err := lookupSpec(*workload)
	if err == nil && (*seconds < 1 || *trace < 0 || *trace > 1) {
		err = errors.New("--seconds must be at least 1 and --trace 0 or 1")
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, "kvbench:", err)
		os.Exit(2)
	}
	r := newRunner(s, *seed, time.Duration(*seconds)*time.Second, ".bench_build", os.Stdout)
	res, err := r.run(*trace == 1)
	if err != nil {
		fmt.Fprintln(os.Stderr, "kvbench:", err)
		os.Exit(1)
	}
	out, err := json.Marshal(res)
	if err != nil {
		fmt.Fprintln(os.Stderr, "kvbench:", err)
		os.Exit(1)
	}
	fmt.Println(string(out))
}

// durablePolicy is kv-durable's WAL fsync policy. cmd/alexkv defaults
// to always, but under always every SET waits for an fsync of a disk
// other tenants share, and runs of the same code were measured to
// differ by up to 1.7x in throughput; interval keeps the WAL append,
// group commit and checkpoints on the measured path with acks that do
// not wait for the disk. The traced run still measures a DurableIndex
// under always on the ladder.
const (
	durablePolicy     = alex.FsyncInterval
	durablePolicyName = "interval"
)

// metric is one reported figure.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is the last line a run prints.
type result struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

// runner runs one workload at one seed.
type runner struct {
	s         spec
	seed      int64
	seconds   time.Duration
	warm      time.Duration
	windows   int
	setupReps int
	root      string // scratch directory for data dirs and span files
	out       io.Writer
	clk       clock
	in        *inputs
	payloads  []uint64 // payloads of in.load
	// reqs and offs hold each stream's requests, formatted up front.
	reqs [][]byte
	offs [][]int32

	attempted, failed int
	firstErr          error

	// replayed and perRecord describe kv-durable's recovery: WAL
	// records replayed, and the open time they add per record over an
	// open that replays none.
	replayed  int
	perRecord float64
}

func newRunner(s spec, seed int64, seconds time.Duration, root string, out io.Writer) *runner {
	return &runner{
		s: s, seed: seed, seconds: seconds, root: root, out: out,
		warm:      min(time.Second, seconds/5),
		windows:   max(1, int(seconds/(500*time.Millisecond))),
		setupReps: 3,
	}
}

// note records the outcome of attempted operations or checks.
func (r *runner) note(attempted, failed int, err error) {
	r.attempted += attempted
	r.failed += failed
	if r.firstErr == nil && err != nil {
		r.firstErr = err
	}
}

func (r *runner) check(err error) {
	r.note(1, boolInt(err != nil), err)
}

func boolInt(b bool) int {
	if b {
		return 1
	}
	return 0
}

func (r *runner) printf(format string, args ...any) {
	fmt.Fprintf(r.out, format, args...)
}

// run generates the inputs, then runs the untraced or the traced
// sequence and returns the result line.
func (r *runner) run(traced bool) (*result, error) {
	if err := os.MkdirAll(r.root, 0o755); err != nil {
		return nil, err
	}
	fp := takeFingerprint(r.root, r.s)
	fpj, err := json.Marshal(fp)
	if err != nil {
		return nil, err
	}
	r.printf("run workload=%s seed=%d seconds=%d trace=%d\n", r.s.name, r.seed, int(r.seconds/time.Second), boolInt(traced))
	r.printf("fingerprint %s\n", fpj)

	streamLen := int(float64(r.s.rate) * (r.warm + r.seconds).Seconds())
	r.in = genInputs(r.s, r.seed, streamLen)
	if r.s.server {
		for _, ops := range r.in.streams {
			arena, off := requests(ops)
			r.reqs, r.offs = append(r.reqs, arena), append(r.offs, off)
		}
	}
	r.payloads = make([]uint64, len(r.in.load))
	for i, k := range r.in.load {
		r.payloads[i] = payloadOf(k)
	}
	r.clk = clock{time.Now()}

	var ms metricSet
	if traced {
		ms, err = r.tracedRun()
	} else {
		ms, err = r.untracedRun()
	}
	if err != nil {
		return nil, err
	}
	r.printf("metric fail_ratio %.6g ratio (%d of %d attempted)\n", ratio(float64(r.failed), float64(r.attempted)), r.failed, r.attempted)
	if r.firstErr != nil {
		r.printf("first failure: %v\n", r.firstErr)
	}
	res := &result{Correct: r.failed == 0, Attempted: max(1, r.attempted), Failed: r.failed, Metrics: map[string]metric{}}
	for _, m := range ms {
		res.Metrics[m.name] = metric{m.value, m.unit}
	}
	return res, nil
}

// metricSet is an ordered list of named metrics.
type metricSet []namedMetric

type namedMetric struct {
	name  string
	value float64
	unit  string
}

func (ms *metricSet) add(name string, value float64, unit string) {
	*ms = append(*ms, namedMetric{name, value, unit})
}

func (ms metricSet) print(w io.Writer) {
	for _, m := range ms {
		fmt.Fprintf(w, "metric %s %.6g %s\n", m.name, m.value, m.unit)
	}
}

func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}

// built is one store, built the way cmd/alexkv builds it, and the
// server in front of it when the workload has one.
type built struct {
	store   server.Store
	sharded *alex.ShardedIndex
	durable *alex.DurableIndex
	dir     string
	fs      *tracedFS
	preload time.Duration

	ln        net.Listener
	srv       *server.Server
	serveDone chan error
}

// build opens the store and loads the workload's keys: one shard per
// core and WithSplitOnInsert, as cmd/alexkv builds it; the keys are
// merged in cmd/alexkv's preload chunks, or bulk-loaded for
// index-churn; kv-durable opens a DurableIndex with fsync=always in a
// fresh data directory.
func (r *runner) build(tag string, fs *tracedFS, ckptEvery int) (*built, error) {
	b := &built{fs: fs}
	if r.s.durable {
		b.dir = filepath.Join(r.root, "data", fmt.Sprintf("%s-%d-%s", r.s.name, os.Getpid(), tag))
		if err := os.RemoveAll(b.dir); err != nil {
			return nil, err
		}
		var fsys faultfs.FS
		if fs != nil {
			fsys = fs
		}
		d, err := openDurable(b.dir, durablePolicy, ckptEvery, fsys)
		if err != nil {
			return nil, err
		}
		b.durable, b.store = d, d
	} else if r.s.bulk {
		t0 := time.Now()
		sh, err := alex.LoadSharded(0, r.in.load, r.payloads, alex.WithSplitOnInsert())
		if err != nil {
			return nil, err
		}
		b.preload = time.Since(t0)
		b.sharded, b.store = sh, sh
		return b, nil
	} else {
		b.sharded = alex.NewSharded(0, alex.WithSplitOnInsert())
		b.store = b.sharded
	}
	var m merger = b.sharded
	if b.durable != nil {
		m = b.durable
	}
	t0 := time.Now()
	n := preload(m, r.in.load, r.payloads)
	b.preload = time.Since(t0)
	if n != len(r.in.load) {
		return nil, fmt.Errorf("preload inserted %d of %d keys", n, len(r.in.load))
	}
	return b, nil
}

// openDurable opens a DurableIndex with kv-durable's index options;
// fsys nil means the real filesystem.
func openDurable(dir string, policy alex.FsyncPolicy, ckptEvery int, fsys faultfs.FS) (*alex.DurableIndex, error) {
	opts := []alex.DurableOption{
		alex.WithFsyncPolicy(policy),
		alex.WithCheckpointEvery(ckptEvery),
		alex.WithIndexOptions(alex.WithSplitOnInsert()),
	}
	if fsys != nil {
		opts = append(opts, alex.WithFilesystem(fsys))
	}
	return alex.OpenDurable(dir, opts...)
}

type merger interface {
	Merge(keys []float64, payloads []uint64) int
}

// preload merges keys in the chunks cmd/alexkv uses (each chunk is one
// WAL record in durable mode) and returns the number inserted.
func preload(st merger, keys []float64, payloads []uint64) int {
	const chunk = 1 << 18
	n := 0
	for start := 0; start < len(keys); start += chunk {
		end := min(start+chunk, len(keys))
		n += st.Merge(keys[start:end], payloads[start:end])
	}
	return n
}

// serve starts server.Server on a loopback listener, as cmd/alexkv
// does, and waits until it answers a first request.
func (b *built) serve(wantLen int) error {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return err
	}
	b.ln, b.srv, b.serveDone = ln, server.New(b.store), make(chan error, 1)
	go func() { b.serveDone <- b.srv.Serve(ln) }()
	c, err := dial(ln.Addr().String())
	if err != nil {
		return err
	}
	defer c.conn.Close()
	if err := c.roundTrip([]byte("LEN\n"), opGet); err != nil {
		return err
	}
	if want := fmt.Sprintf("LEN %d\n", wantLen); string(c.reply) != want {
		return fmt.Errorf("first request: got %q, want %q", c.reply, want)
	}
	return nil
}

// stopServer runs cmd/alexkv's shutdown order: stop accepting, then
// drain the handlers.
func (b *built) stopServer() error {
	if b.ln == nil {
		return nil
	}
	b.ln.Close()
	err := <-b.serveDone
	b.srv.Close()
	b.ln = nil
	return err
}

// close stops the server and closes the store, leaving its files.
func (b *built) close() error {
	err := b.stopServer()
	if cerr := b.store.Close(); err == nil {
		err = cerr
	}
	return err
}

// discard closes the store and removes its files.
func (b *built) discard() error {
	err := b.close()
	if b.dir != "" {
		if rerr := os.RemoveAll(b.dir); err == nil {
			err = rerr
		}
	}
	return err
}

// setup builds the store setupReps times, each time until the first
// request can be served, and keeps the last build. It returns the
// median set-up time and the median preload time.
func (r *runner) setup() (*built, time.Duration, time.Duration, error) {
	var setups, preloads []float64
	var b *built
	for rep := 0; rep < r.setupReps; rep++ {
		if b != nil {
			if err := b.discard(); err != nil {
				return nil, 0, 0, err
			}
			b = nil
			runtime.GC()
		}
		t0 := time.Now()
		var err error
		b, err = r.build(fmt.Sprint("setup", rep), nil, r.s.ckptEvery)
		if err == nil && r.s.server {
			err = b.serve(len(r.in.load))
		}
		if err != nil {
			return nil, 0, 0, err
		}
		setups = append(setups, float64(time.Since(t0)))
		preloads = append(preloads, float64(b.preload))
	}
	return b, time.Duration(median(setups)), time.Duration(median(preloads)), nil
}

// phase is what one measured phase leaves behind.
type phase struct {
	stats      phaseStats
	t          timing
	recs       []*recorder
	stores     []*tracedStore // traced server phases: one per connection
	statsDelta alex.Stats
	rt         runtimeDelta
	sets       int // acknowledged SETs, warm-up included
	walBefore  alex.WALStats
	walAfter   alex.WALStats
	ckpts      uint64
	tfs        *tracedFS // traced kv-durable phases
	steal      float64   // share of the machine's CPU time the host took
	sizes      *sizer
	begin, end int64 // clock time of the phase
}

// runPhase runs the workload's streams on b for warm-up plus the
// measured seconds, closed loop, one connection or goroutine per
// stream.
func (r *runner) runPhase(b *built, traced bool) (*phase, error) {
	p := &phase{recs: make([]*recorder, conns), tfs: b.fs}
	for c := range p.recs {
		p.recs[c] = newRecorder(len(r.in.streams[c]), traced)
	}
	p.sizes = &sizer{st: b.store, every: r.s.sizeOps / sizeReads}
	p.recs[0].sizes = p.sizes
	var clients []*client
	var handlers chan struct{}
	if r.s.server {
		// Each connection is an in-memory pipe served by its own
		// server.Handle goroutine, as Serve serves an accepted
		// connection. Over loopback TCP the kernel took about 90% of a
		// request, and its cost moved by up to 1.6x between runs of one
		// commit with the host's state; net.loopback_us on the traced
		// ladder still measures it. A traced phase gives each
		// connection its own store decorator, so the store spans of a
		// request land beside its client span.
		handlers = make(chan struct{}, conns)
		if traced {
			p.stores = make([]*tracedStore, conns)
		}
		for c := 0; c < conns; c++ {
			st := b.store
			if traced {
				st, p.stores[c] = traceStore(b.store, r.clk, len(r.in.streams[c]))
			}
			cc, sc := net.Pipe()
			go func() {
				server.New(st).Handle(sc)
				sc.Close()
				handlers <- struct{}{}
			}()
			clients = append(clients, newClient(cc))
		}
	}
	statsBefore := b.store.Stats()
	if b.durable != nil {
		p.walBefore = b.durable.WALStats()
		p.ckpts = b.durable.Checkpoints()
	}
	rtBefore := readRuntime()
	stealBefore := readSteal()
	p.begin = r.clk.now()
	p.t = timing{
		warmEnd: p.begin + int64(r.warm),
		window:  int64(r.seconds) / int64(r.windows),
		windows: r.windows,
	}
	parallel(conns, func(c int) {
		if r.s.server {
			runClient(clients[c], r.in.streams[c], r.reqs[c], r.offs[c], r.clk, p.t, p.recs[c])
		} else {
			runInProc(b.store, r.in.streams[c], r.clk, p.t, p.recs[c])
		}
	})
	p.end = r.clk.now()
	p.rt = readRuntime().sub(rtBefore)
	p.steal = readSteal().share(stealBefore)
	p.statsDelta = statsSub(b.store.Stats(), statsBefore)
	if b.durable != nil {
		p.walAfter = b.durable.WALStats()
		p.ckpts = b.durable.Checkpoints() - p.ckpts
	}
	for _, cl := range clients {
		cl.conn.Close()
	}
	for i := 0; handlers != nil && i < conns; i++ {
		<-handlers
	}
	p.stats = summarize(r.in.streams, p.recs, p.t)
	p.sets = len(r.acked(p))
	r.note(p.stats.done, p.stats.failed, p.stats.err)
	if p.stats.exhausted && p.stats.failed == 0 {
		r.printf("note: a pre-drawn stream ran out before the phase ended; raise spec.rate\n")
	}
	if n := len(p.sizes.out[0]); n < sizeReads {
		r.printf("note: the phase ended after %d of %d size readings; lower spec.sizeOps\n", n, sizeReads)
	}
	return p, nil
}

// sizeReads is the number of times a phase reads the store's sizes.
const sizeReads = 10

// sizer reads the store's index and data bytes per key after every
// `every` ops of the first stream, sizeReads times. The reads happen on
// the stream's own goroutine between requests, so with one connection
// the store then holds the same keys in every run of a seed, however
// fast the run went; gapped arrays grow in steps as leaves expand, and
// the median over the readings does not hang on one step.
type sizer struct {
	st    server.Store
	every int
	out   [2][]float64
}

// after takes a reading if done ops complete a step; it reports whether
// it did.
func (z *sizer) after(done int) bool {
	if z == nil || done%z.every != 0 || len(z.out[0]) == sizeReads {
		return false
	}
	n := float64(z.st.Len())
	z.out[0] = append(z.out[0], ratio(float64(z.st.IndexSizeBytes()), n))
	z.out[1] = append(z.out[1], ratio(float64(z.st.DataSizeBytes()), n))
	return true
}

// acked returns the keys of the SETs each connection completed.
func (r *runner) acked(p *phase) []float64 {
	var keys []float64
	for c, rec := range p.recs {
		for _, o := range r.in.streams[c][:len(rec.durs)] {
			if o.kind == opSet {
				keys = append(keys, o.key)
			}
		}
	}
	return keys
}

// verifyInMemory checks the in-memory store after a phase: its
// invariants hold and it holds the preload plus every acked SET.
func (r *runner) verifyInMemory(b *built, p *phase) {
	r.check(b.sharded.CheckInvariants())
	want := len(r.in.load) + p.sets
	if n := b.store.Len(); n != want {
		r.check(fmt.Errorf("Len %d after the run, want %d", n, want))
	} else {
		r.check(nil)
	}
}

// recover closes the durable store without a final checkpoint, reopens
// it three times and returns the median open time. The first reopen is
// checked: every acknowledged SET is there with its value, and Len is
// the preload plus those SETs. It also records, in r.replayed and
// r.perRecord, how many WAL records the opens replay and what each adds.
func (r *runner) recover(b *built, p *phase) (time.Duration, error) {
	if err := b.close(); err != nil {
		return 0, err
	}
	var opens []float64
	replayed := 0
	for rep := 0; rep < 3; rep++ {
		runtime.GC()
		t0 := time.Now()
		d, err := openDurable(b.dir, durablePolicy, 0, nil)
		if err != nil {
			return 0, err
		}
		opens = append(opens, float64(time.Since(t0)))
		replayed = d.WALStats().Replayed
		if rep == 0 {
			missing := 0
			acked := r.acked(p)
			for _, k := range acked {
				if v, ok := d.Get(k); !ok || v != payloadOf(k) {
					missing++
				}
			}
			var err error
			if missing > 0 {
				err = fmt.Errorf("%d of %d acknowledged SETs missing after reopen", missing, len(acked))
			}
			r.note(len(acked), missing, err)
			if n, want := d.Len(), len(r.in.load)+len(acked); n != want {
				r.check(fmt.Errorf("Len %d after reopen, want %d", n, want))
			} else {
				r.check(nil)
			}
		}
		if rep == 2 {
			// Checkpoint, so the next open replays nothing: the
			// difference is what the replayed records cost.
			if err := d.Checkpoint(); err != nil {
				return 0, err
			}
		}
		if err := d.Close(); err != nil {
			return 0, err
		}
	}
	rec := time.Duration(median(opens))
	runtime.GC()
	t0 := time.Now()
	d, err := openDurable(b.dir, durablePolicy, 0, nil)
	if err != nil {
		return 0, err
	}
	snapOnly := time.Since(t0)
	if err := d.Close(); err != nil {
		return 0, err
	}
	r.replayed = replayed
	r.perRecord = ratio(float64(rec-snapOnly), float64(replayed))
	return rec, nil
}

// dirBytes sums the sizes of the files in dir.
func dirBytes(dir string) (int64, error) {
	entries, err := os.ReadDir(dir)
	if err != nil {
		return 0, err
	}
	var n int64
	for _, e := range entries {
		info, err := e.Info()
		if err != nil {
			return 0, err
		}
		n += info.Size()
	}
	return n, nil
}

// untracedRun is the --trace 0 sequence: set-up, one measured phase,
// the end-of-run checks, and the end-to-end metrics.
func (r *runner) untracedRun() (metricSet, error) {
	b, setupT, _, err := r.setup()
	if err != nil {
		return nil, err
	}
	p, err := r.runPhase(b, false)
	if err != nil {
		return nil, err
	}
	e2e, extra, err := r.endToEnd(b, p, setupT)
	if err != nil {
		return nil, err
	}
	e2e.print(r.out)
	extra.print(r.out)
	r.printCounts(p)
	return e2e, nil
}

// endToEnd finishes a phase on b (checks, recovery, size metrics) and
// returns the end-to-end metrics every workload has, plus those only
// some workloads have.
func (r *runner) endToEnd(b *built, p *phase, setupT time.Duration) (e2e, extra metricSet, err error) {
	st := p.stats
	n := float64(b.store.Len())
	if sh, ok := b.store.(*alex.ShardedIndex); ok {
		r.printf("keys per shard %v\n", sh.ShardLens())
	} else if sh, ok := b.durable.Unwrap().(*alex.ShardedIndex); ok {
		r.printf("keys per shard %v\n", sh.ShardLens())
	}
	e2e.add("throughput", st.throughput, "ops/s")
	e2e.add("get_p50_us", st.p50[opGet]/1e3, "us")
	e2e.add("set_p50_us", st.p50[opSet]/1e3, "us")
	e2e.add("setup_s", setupT.Seconds(), "s")
	e2e.add("index_bytes_per_key", median(p.sizes.out[0]), "B")
	e2e.add("data_bytes_per_key", median(p.sizes.out[1]), "B")
	// The p99s are reported but not gated: on a shared two-vCPU host
	// they moved by more than any bound allows between runs of one
	// commit (README.md, "End-to-end metrics").
	extra.add("get_p99_us", st.p99[opGet]/1e3, "us")
	extra.add("set_p99_us", st.p99[opSet]/1e3, "us")
	if r.s.scanPct > 0 {
		extra.add("scan_p50_us", st.p50[opScan]/1e3, "us")
		extra.add("scan_p99_us", st.p99[opScan]/1e3, "us")
	}
	if r.s.durable {
		if err := b.stopServer(); err != nil {
			return nil, nil, err
		}
		disk, err := dirBytes(b.dir)
		if err != nil {
			return nil, nil, err
		}
		extra.add("disk_bytes_per_key", ratio(float64(disk), n), "B")
		rec, err := r.recover(b, p)
		if err != nil {
			return nil, nil, err
		}
		extra.add("recovery_s", rec.Seconds(), "s")
		if err := os.RemoveAll(b.dir); err != nil {
			return nil, nil, err
		}
	} else {
		r.verifyInMemory(b, p)
		if err := b.stopServer(); err != nil {
			return nil, nil, err
		}
	}
	return e2e, extra, nil
}

// printCounts states the sample count behind each latency figure.
func (r *runner) printCounts(p *phase) {
	var parts []string
	r.printf("window throughput_kops %.1f\n", scale(p.stats.winRate, 1e-3))
	for k := opKind(0); k < numKinds; k++ {
		if p.stats.count[k] > 0 {
			parts = append(parts, fmt.Sprintf("%s=%d", kindNames[k], p.stats.count[k]))
			r.printf("window %s_p99_us %.1f\n", kindNames[k], scale(p.stats.winP99[k], 1e-3))
		}
	}
	r.printf("samples %s over %d windows of %v; fsync=%s\n", strings.Join(parts, " "), p.t.windows,
		time.Duration(p.t.window), fsyncPolicy(r.s))
	r.printf("host steal %.1f%% of CPU time during the phase\n", 100*p.steal)
}

// cpuTicks are the machine-wide "steal" and total CPU times of
// /proc/stat, reported per phase so that time the host took from the
// VM can be told apart from a slower program.
type cpuTicks struct{ steal, total uint64 }

func readSteal() cpuTicks {
	data, err := os.ReadFile("/proc/stat")
	if err != nil {
		return cpuTicks{}
	}
	line, _, _ := strings.Cut(string(data), "\n")
	var t cpuTicks
	for i, f := range strings.Fields(line)[1:] {
		v, err := strconv.ParseUint(f, 10, 64)
		if err != nil || i >= 8 { // guest time is already counted in user
			break
		}
		t.total += v
		if i == 7 {
			t.steal = v
		}
	}
	return t
}

func (a cpuTicks) share(b cpuTicks) float64 {
	return ratio(float64(a.steal-b.steal), float64(a.total-b.total))
}

func scale(vs []float64, f float64) []float64 {
	out := make([]float64, len(vs))
	for i, v := range vs {
		out[i] = v * f
	}
	return out
}

// fingerprint identifies the environment a result was measured in;
// results with different fingerprints are not compared.
type fingerprint struct {
	CPU        string `json:"cpu"`
	NProc      int    `json:"nproc"`
	GOMAXPROCS int    `json:"gomaxprocs"`
	Go         string `json:"go"`
	FS         string `json:"fs"`
	Fsync      string `json:"fsync"`
}

func fsyncPolicy(s spec) string {
	if s.durable {
		return durablePolicyName
	}
	return "none"
}

func takeFingerprint(dir string, s spec) fingerprint {
	return fingerprint{
		CPU:        cpuModel(),
		NProc:      runtime.NumCPU(),
		GOMAXPROCS: runtime.GOMAXPROCS(0),
		Go:         runtime.Version(),
		FS:         fsType(dir),
		Fsync:      fsyncPolicy(s),
	}
}

func cpuModel() string {
	f, err := os.Open("/proc/cpuinfo")
	if err != nil {
		return runtime.GOARCH
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		if name, val, ok := strings.Cut(sc.Text(), ":"); ok && strings.TrimSpace(name) == "model name" {
			return strings.TrimSpace(val)
		}
	}
	return runtime.GOARCH
}

// fsType names the filesystem holding dir, from statfs's magic number.
func fsType(dir string) string {
	var st syscall.Statfs_t
	if err := syscall.Statfs(dir, &st); err != nil {
		return "unknown"
	}
	magic := map[int64]string{
		0xEF53: "ext4", 0x58465342: "xfs", 0x9123683E: "btrfs", 0x01021994: "tmpfs",
		0x794C7630: "overlay", 0x2FC12FC1: "zfs", 0x6969: "nfs", 0x65735546: "fuse",
	}
	if name, ok := magic[int64(st.Type)]; ok {
		return name
	}
	return fmt.Sprintf("0x%x", st.Type)
}

// statsSub returns the counter deltas between two Stats() readings.
// Stats() sums the expand, retrain, shift and insert counters over the
// live leaves only, so a leaf that splits takes its counts with it:
// those deltas are lower bounds, clamped at zero. Splits and
// CostRetrains are tree-wide and exact.
func statsSub(a, b alex.Stats) alex.Stats {
	sub := func(x, y uint64) uint64 {
		if x < y {
			return 0
		}
		return x - y
	}
	d := a
	d.Shifts = sub(a.Shifts, b.Shifts)
	d.Expands = sub(a.Expands, b.Expands)
	d.Contracts = sub(a.Contracts, b.Contracts)
	d.Rebalances = sub(a.Rebalances, b.Rebalances)
	d.Retrains = sub(a.Retrains, b.Retrains)
	d.Inserts = sub(a.Inserts, b.Inserts)
	d.Deletes = sub(a.Deletes, b.Deletes)
	d.Splits = sub(a.Splits, b.Splits)
	d.CostRetrains = sub(a.CostRetrains, b.CostRetrains)
	return d
}
