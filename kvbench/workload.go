package main

import (
	"fmt"
	"math"
	"math/rand"
	"slices"
	"strconv"

	"repro/internal/datasets"
)

// opKind is one request type of a workload mix.
type opKind uint8

const (
	opGet opKind = iota
	opSet
	opScan
	numKinds
)

var kindNames = [numKinds]string{"get", "set", "scan"}

// op is one pre-drawn request: GET key, SET key (a key not yet stored,
// with payload payloadOf(key)), or SCAN n keys from key.
type op struct {
	key  float64
	kind opKind
	n    uint8
}

// spec fixes one workload: its keys, its mix and how it is served.
type spec struct {
	name    string
	dataset datasets.Name
	keys    int // preloaded keys
	getPct  int // GET share in percent
	scanPct int // SCAN share in percent; the rest are SETs of new keys
	server  bool
	durable bool // DurableIndex (see durablePolicy) behind the server
	// bulk loads the keys with LoadSharded; otherwise they are merged in
	// cmd/alexkv's preload chunks.
	bulk bool
	// ckptEvery is the WAL record count between automatic checkpoints,
	// chosen so a run completes at least three of them.
	ckptEvery int
	// rate is the most operations per second one connection is
	// expected to complete; the pre-drawn streams are sized from it,
	// since a closed loop cannot know its length in advance.
	rate int
	// sizeOps is the op count by which a run has read the store's
	// sizes sizeReads times; even a slow run must reach it.
	sizeOps int
	// ladderOps is the length of the single-connection stream the
	// traced run replays up the rungs.
	ladderOps int
}

// conns is the number of connections (server workloads) or goroutines
// (index-churn) a measured phase runs, one request in flight each. A
// served request keeps a client and a handler goroutine busy in turn,
// so on two cores one connection served about as many requests per
// second as two (kv-read over loopback: 55k against 56k), and it
// leaves a core to other tenants: with a busy loop on one core beside
// the run, kv-read throughput fell 5% at one connection against 18% at
// two. In-process, one goroutine outran two (index-churn: 640k-710k
// against 480k-590k ops/s, alternating) and its runs varied half as
// much.
const conns = 1

// workloads are the benchmark's three mixes; README.md says why each
// exists.
var workloads = []spec{
	{name: "kv-read", dataset: datasets.YCSB, keys: 1 << 20, getPct: 90, scanPct: 5,
		server: true, rate: 200000, sizeOps: 500000, ladderOps: 20000},
	{name: "kv-durable", dataset: datasets.YCSB, keys: 1 << 20, getPct: 50,
		server: true, durable: true, ckptEvery: 200000, rate: 200000, sizeOps: 500000,
		ladderOps: 8000},
	{name: "index-churn", dataset: datasets.LongitudesDrifted, keys: 4 << 20, getPct: 50,
		bulk: true, rate: 900000, sizeOps: 6000000, ladderOps: 40000},
}

func lookupSpec(name string) (spec, error) {
	for _, s := range workloads {
		if s.name == name {
			return s, nil
		}
	}
	return spec{}, fmt.Errorf("unknown workload %q", name)
}

// payloadOf is the value stored under key, so every reply can be
// checked without a reference map.
func payloadOf(key float64) uint64 {
	return math.Float64bits(key) * 0x9E3779B97F4A7C15
}

// inputs holds everything a run feeds the program, drawn from the seed
// before any timing starts.
type inputs struct {
	load []float64 // preloaded keys, in generator (shuffled) order
	// streams are the per-connection op streams of the measured phases.
	streams [][]op
	// ladder holds the single-connection streams of the rung replay:
	// the reads of every pass are identical, and pass p inserts its own
	// fresh keys ladder[p], so passes that share a store never update.
	ladder [][]op
}

// ladderPasses is the number of ladder streams; see ladder.go.
const ladderPasses = passAlways + 1

// genInputs draws a workload's keys and op streams from seed. streamLen
// is the length of each measured connection stream.
func genInputs(s spec, seed int64, streamLen int) *inputs {
	in := &inputs{load: datasets.Generate(s.dataset, s.keys, seed)}
	type draft struct {
		ops  []op
		sets int
	}
	drafts := make([]draft, conns+1)
	draw := func(i int, rseed int64, n int) {
		rng := rand.New(rand.NewSource(rseed))
		zipf := datasets.NewZipfian(rng, len(in.load), datasets.ZipfTheta)
		d := draft{ops: make([]op, n)}
		for i := range d.ops {
			p := rng.Intn(100)
			switch {
			case p < s.getPct:
				d.ops[i] = op{kind: opGet, key: in.load[zipf.Scrambled()]}
			case p < s.getPct+s.scanPct:
				d.ops[i] = op{kind: opScan, key: in.load[zipf.Scrambled()], n: uint8(1 + rng.Intn(100))}
			default:
				d.ops[i] = op{kind: opSet}
				d.sets++
			}
		}
		drafts[i] = d
	}
	// Each stream has its own generator, so drawing them at once gives
	// the same streams as drawing them in turn.
	ladderReads := conns
	parallel(conns+1, func(i int) {
		if i == ladderReads {
			draw(i, seed*1000+999, s.ladderOps)
		} else {
			draw(i, seed*1000+int64(i)+1, streamLen)
		}
	})

	need := 0
	for _, d := range drafts {
		need += d.sets
	}
	need += ladderPasses * drafts[ladderReads].sets
	fresh := freshKeys(s.dataset, in.load, need, seed)
	next := 0
	fill := func(ops []op) []op {
		out := slices.Clone(ops)
		for i := range out {
			if out[i].kind == opSet {
				out[i].key = fresh[next]
				next++
			}
		}
		return out
	}
	for _, d := range drafts[:ladderReads] {
		in.streams = append(in.streams, fill(d.ops))
	}
	for p := 0; p < ladderPasses; p++ {
		in.ladder = append(in.ladder, fill(drafts[ladderReads].ops))
	}
	return in
}

// freshKeys draws n keys from the load keys' generator at other seeds,
// dropping any that collide with a loaded key or an earlier fresh key,
// so every SET inserts. Each round draws two chunks at once; a chunk's
// keys are unique, so within a round only the second chunk can repeat
// the first.
func freshKeys(name datasets.Name, load []float64, n int, seed int64) []float64 {
	taken := slices.Clone(load)
	slices.Sort(taken)
	out := make([]float64, 0, n)
	for round := int64(1); len(out) < n; round++ {
		want := n - len(out)
		want += want/64 + 16
		var chunks, sorted [2][]float64
		var dup [2][]bool
		parallel(2, func(i int) {
			c := datasets.Generate(name, (want+i)/2, seed^(0x5DEECE66D*(2*round+int64(i))))
			chunks[i] = c
			sorted[i] = slices.Clone(c)
			slices.Sort(sorted[i])
			dup[i] = make([]bool, len(c))
			for j, k := range c {
				_, dup[i][j] = slices.BinarySearch(taken, k)
			}
		})
		for j, k := range chunks[1] {
			if _, hit := slices.BinarySearch(sorted[0], k); hit {
				dup[1][j] = true
			}
		}
		for i, c := range chunks {
			for j, k := range c {
				if !dup[i][j] && len(out) < n {
					out = append(out, k)
				}
			}
		}
		if len(out) < n {
			taken = append(taken, out...)
			slices.Sort(taken)
		}
	}
	return out
}

// requests formats a stream as protocol lines in one arena; request i is
// arena[off[i]:off[i+1]].
func requests(ops []op) (arena []byte, off []int32) {
	off = make([]int32, 0, len(ops)+1)
	for _, o := range ops {
		off = append(off, int32(len(arena)))
		switch o.kind {
		case opGet:
			arena = append(arena, "GET "...)
			arena = strconv.AppendFloat(arena, o.key, 'g', -1, 64)
		case opSet:
			arena = append(arena, "SET "...)
			arena = strconv.AppendFloat(arena, o.key, 'g', -1, 64)
			arena = append(arena, ' ')
			arena = strconv.AppendUint(arena, payloadOf(o.key), 10)
		case opScan:
			arena = append(arena, "SCAN "...)
			arena = strconv.AppendFloat(arena, o.key, 'g', -1, 64)
			arena = append(arena, ' ')
			arena = strconv.AppendUint(arena, uint64(o.n), 10)
		}
		arena = append(arena, '\n')
	}
	off = append(off, int32(len(arena)))
	return arena, off
}
