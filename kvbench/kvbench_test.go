package main

import (
	"bytes"
	"encoding/binary"
	"encoding/json"
	"io"
	"math"
	"os"
	"slices"
	"strconv"
	"testing"
	"time"

	alex "repro"
)

// smoke shrinks a workload to test size.
func smoke(s spec) spec {
	s.keys = 8192
	s.rate *= 2 // small stores serve faster
	s.ladderOps = 400
	s.sizeOps = 2000
	s.ckptEvery = min(s.ckptEvery, 200)
	return s
}

func TestSeedGivesIdenticalStreams(t *testing.T) {
	for _, w := range workloads {
		s := smoke(w)
		a, b, c := genInputs(s, 7, 3000), genInputs(s, 7, 3000), genInputs(s, 8, 3000)
		enc := func(in *inputs) []byte {
			var out []byte
			for _, k := range in.load {
				out = append(out, encodeOps([]op{{key: k}})...)
			}
			for _, st := range append(slices.Clone(in.streams), in.ladder...) {
				out = append(out, encodeOps(st)...)
			}
			return out
		}
		if !bytes.Equal(enc(a), enc(b)) {
			t.Errorf("%s: seed 7 gave two different op streams", s.name)
		}
		if bytes.Equal(enc(a), enc(c)) {
			t.Errorf("%s: seeds 7 and 8 gave the same op streams", s.name)
		}
		arenaA, _ := requests(a.streams[0])
		arenaB, _ := requests(b.streams[0])
		if !bytes.Equal(arenaA, arenaB) {
			t.Errorf("%s: seed 7 gave two different request streams", s.name)
		}
		// Every SET must insert a key nobody else inserts.
		seen := map[float64]bool{}
		for _, k := range a.load {
			seen[k] = true
		}
		for _, st := range append(slices.Clone(a.streams), a.ladder...) {
			for _, o := range st {
				if o.kind == opSet {
					if seen[o.key] {
						t.Fatalf("%s: SET key %v is not fresh", s.name, o.key)
					}
					seen[o.key] = true
				}
			}
		}
	}
}

// TestSingleGoroutineCountsRepeat replays one stream on one goroutine
// twice and expects the program's own counters to repeat exactly, so a
// later change can rest a claim on them.
func TestSingleGoroutineCountsRepeat(t *testing.T) {
	s := smoke(workloads[2])
	in := genInputs(s, 3, 20000)
	payloads := make([]uint64, len(in.load))
	for i, k := range in.load {
		payloads[i] = payloadOf(k)
	}
	noDeadline := timing{window: math.MaxInt64 / 4, windows: 1}
	clk := clock{time.Now()}
	sharded := func() alex.Stats {
		sh, err := alex.LoadSharded(0, in.load, payloads, alex.WithSplitOnInsert())
		if err != nil {
			t.Fatal(err)
		}
		before := sh.Stats()
		rec := newRecorder(len(in.streams[0]), false)
		runInProc(sh, in.streams[0], clk, noDeadline, rec)
		if rec.failed != 0 {
			t.Fatal(rec.err)
		}
		return statsSub(sh.Stats(), before)
	}
	a, b := sharded(), sharded()
	if a != b {
		t.Errorf("Stats() deltas differ between identical runs:\n%+v\n%+v", a, b)
	}
	if a.Splits+a.Expands == 0 {
		t.Errorf("the stream caused no structure modifications: %+v", a)
	}
	durable := func() uint64 {
		d, err := alex.OpenDurable(t.TempDir(), alex.WithFsyncPolicy(alex.FsyncNever), alex.WithCheckpointEvery(0))
		if err != nil {
			t.Fatal(err)
		}
		defer d.Close()
		preload(d, in.load, payloads)
		rec := newRecorder(len(in.streams[0]), false)
		runInProc(d, in.streams[0], clk, noDeadline, rec)
		if rec.failed != 0 {
			t.Fatal(rec.err)
		}
		return d.WALStats().Appends
	}
	if x, y := durable(), durable(); x != y {
		t.Errorf("WALStats().Appends differ between identical runs: %d vs %d", x, y)
	}
}

// TestWorkloadsSmoke runs every workload untraced and traced at test
// size: no operation may fail, and each run must report exactly the
// metrics BENCHMARK.json lists.
func TestWorkloadsSmoke(t *testing.T) {
	data, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var bf struct {
		EndToEnd []struct{ Name string } `json:"end_to_end"`
		PerLayer []struct{ Name string } `json:"per_layer"`
	}
	if err := json.Unmarshal(data, &bf); err != nil {
		t.Fatal(err)
	}
	want := map[bool][]string{}
	for _, m := range bf.EndToEnd {
		want[false] = append(want[false], m.Name)
	}
	for _, m := range bf.PerLayer {
		want[true] = append(want[true], m.Name)
	}
	for _, w := range workloads {
		for _, traced := range []bool{false, true} {
			r := newRunner(smoke(w), 5, 500*time.Millisecond, t.TempDir(), io.Discard)
			r.setupReps = 1
			res, err := r.run(traced)
			if err != nil {
				t.Fatalf("%s traced=%v: %v", w.name, traced, err)
			}
			if !res.Correct || res.Failed != 0 || res.Attempted == 0 {
				t.Errorf("%s traced=%v: correct=%v failed=%d attempted=%d: %v", w.name, traced,
					res.Correct, res.Failed, res.Attempted, r.firstErr)
			}
			var got []string
			for name, m := range res.Metrics {
				got = append(got, name)
				if math.IsNaN(m.Value) || math.IsInf(m.Value, 0) {
					t.Errorf("%s traced=%v: %s = %v", w.name, traced, name, m.Value)
				}
			}
			slices.Sort(got)
			exp := slices.Sorted(slices.Values(want[traced]))
			if !slices.Equal(got, exp) {
				t.Errorf("%s traced=%v: metrics\n%v\nwant\n%v", w.name, traced, got, exp)
			}
			if !traced && res.Metrics["throughput"].Value <= 0 {
				t.Errorf("%s: zero throughput", w.name)
			}
			if !traced && res.Metrics["data_bytes_per_key"].Value <= 0 {
				t.Errorf("%s: no size readings", w.name)
			}
		}
	}
}

func TestQuartilesMatchPython(t *testing.T) {
	// statistics.quantiles([1..10], n=4) == [2.75, 5.5, 8.25]
	got := quartiles([]float64{1, 2, 3, 4, 5, 6, 7, 8, 9, 10})
	if got != [3]float64{2.75, 5.5, 8.25} {
		t.Errorf("quartiles = %v", got)
	}
}

// encodeOps serializes a stream, for the determinism test.
func encodeOps(ops []op) []byte {
	b := make([]byte, 0, len(ops)*10)
	for _, o := range ops {
		b = binary.LittleEndian.AppendUint64(b, math.Float64bits(o.key))
		b = append(b, byte(o.kind), o.n)
	}
	return b
}

// TestCompareRefusesDifferentFingerprints checks the comparison step:
// runs from different environments are refused, and a median that got
// worse by more than its bound fails the comparison.
func TestCompareRefusesDifferentFingerprints(t *testing.T) {
	bench := t.TempDir() + "/BENCHMARK.json"
	if err := os.WriteFile(bench, []byte(`{"end_to_end":[{"name":"throughput","better":"higher","bound":0.1}]}`), 0o644); err != nil {
		t.Fatal(err)
	}
	save := func(dir, name, fs string, tput float64) {
		out := "run workload=kv-read seed=1 seconds=1 trace=0\n" +
			`fingerprint {"cpu":"x","fs":"` + fs + "\"}\n" +
			`{"correct":true,"attempted":1,"failed":0,"metrics":{"throughput":{"value":` +
			strconv.FormatFloat(tput, 'g', -1, 64) + `,"unit":"ops/s"}}}` + "\n"
		if err := os.WriteFile(dir+"/"+name, []byte(out), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	base, same, slower, other := t.TempDir(), t.TempDir(), t.TempDir(), t.TempDir()
	for i, v := range []float64{100, 101, 99} {
		save(base, strconv.Itoa(i), "ext4", v)
		save(same, strconv.Itoa(i), "ext4", v+1)
		save(slower, strconv.Itoa(i), "ext4", v/2)
		save(other, strconv.Itoa(i), "xfs", v)
	}
	for _, tc := range []struct {
		dir  string
		want int
	}{{same, 0}, {slower, 1}, {other, 2}} {
		if got := compareMain([]string{"-bench", bench, base, tc.dir}, io.Discard); got != tc.want {
			t.Errorf("compare with %s: exit %d, want %d", tc.dir, got, tc.want)
		}
	}
}
