package server

// Byte-level checks of the protocol layer's own parsing and reply
// formatting: replies equal the fmt-formatted lines they replaced, the
// tokenizer splits exactly as strings.Fields, and a failed reply write
// stops the connection.

import (
	"bytes"
	"fmt"
	"io"
	"math"
	"math/rand"
	"slices"
	"strings"
	"testing"

	alex "repro"
)

// stubStore is a Store over fixed sorted keys whose methods never
// allocate (given warm destination slices): Insert and Delete only
// report what they would have done, so every request can be replayed.
type stubStore struct {
	keys []float64
	vals []uint64
}

var (
	_ Store    = (*stubStore)(nil)
	_ Degrader = (*stubStore)(nil)
)

func (st *stubStore) Get(key float64) (uint64, bool) {
	i, ok := slices.BinarySearch(st.keys, key)
	if !ok {
		return 0, false
	}
	return st.vals[i], true
}

func (st *stubStore) Insert(key float64, _ uint64) bool {
	_, ok := slices.BinarySearch(st.keys, key)
	return !ok
}

func (st *stubStore) Delete(key float64) bool {
	_, ok := slices.BinarySearch(st.keys, key)
	return ok
}

func (st *stubStore) GetBatch(keys []float64) ([]uint64, []bool) {
	vals, found := make([]uint64, len(keys)), make([]bool, len(keys))
	st.GetBatchInto(keys, vals, found)
	return vals, found
}

func (st *stubStore) GetBatchInto(keys []float64, payloads []uint64, found []bool) {
	for i, k := range keys {
		payloads[i], found[i] = st.Get(k)
	}
}

func (st *stubStore) InsertBatch(keys []float64, _ []uint64) int {
	n := 0
	for _, k := range keys {
		if st.Insert(k, 0) {
			n++
		}
	}
	return n
}

func (st *stubStore) DeleteBatch(keys []float64) int {
	n := 0
	for _, k := range keys {
		if st.Delete(k) {
			n++
		}
	}
	return n
}

func (st *stubStore) ScanN(start float64, max int) ([]float64, []uint64) {
	return st.ScanNInto(start, max, nil, nil)
}

func (st *stubStore) ScanNInto(start float64, max int, keys []float64, payloads []uint64) ([]float64, []uint64) {
	i, _ := slices.BinarySearch(st.keys, start)
	j := min(i+max, len(st.keys))
	return append(keys, st.keys[i:j]...), append(payloads, st.vals[i:j]...)
}

func (st *stubStore) Len() int            { return len(st.keys) }
func (st *stubStore) Stats() alex.Stats   { return alex.Stats{} }
func (st *stubStore) IndexSizeBytes() int { return 0 }
func (st *stubStore) DataSizeBytes() int  { return 0 }
func (st *stubStore) Flush() error        { return nil }
func (st *stubStore) Close() error        { return nil }
func (st *stubStore) Degraded() error     { return nil }

// stepConn hands Handle one request per Read. Handle flushes each
// reply before it reads on, so the Read asking for the next request
// marks the previous reply complete.
type stepConn struct {
	req   chan []byte
	ready chan struct{}
	reply []byte
}

func (c *stepConn) Read(p []byte) (int, error) {
	c.ready <- struct{}{}
	req, ok := <-c.req
	if !ok {
		return 0, io.EOF
	}
	return copy(p, req), nil
}

func (c *stepConn) Write(p []byte) (int, error) {
	c.reply = append(c.reply, p...)
	return len(p), nil
}

// serveSteps runs Handle for st on a stepConn until the test ends.
func serveSteps(t *testing.T, st Store) *stepConn {
	t.Helper()
	c := &stepConn{req: make(chan []byte), ready: make(chan struct{})}
	done := make(chan struct{})
	go func() {
		New(st).Handle(c)
		close(done)
	}()
	<-c.ready
	t.Cleanup(func() {
		close(c.req)
		<-done
	})
	return c
}

// do sends one request and returns its complete reply, valid until the
// next call.
func (c *stepConn) do(req []byte) []byte {
	c.reply = c.reply[:0]
	c.req <- req
	<-c.ready
	return c.reply
}

// edgeKeys returns sorted distinct finite keys covering the float
// formatting edge cases plus random bit patterns and integers.
func edgeKeys(rng *rand.Rand, random int) []float64 {
	keys := []float64{
		0, math.Copysign(0, -1),
		math.SmallestNonzeroFloat64, -math.SmallestNonzeroFloat64,
		2.2250738585072009e-308, 2.2250738585072014e-308, // largest denormal, smallest normal
		math.MaxFloat64, -math.MaxFloat64,
		1, -1, 0.1, 1.0 / 3, 100, 1e21, 1e-7, 123456789012345678,
		1 << 53, 1<<53 - 1, -(1 << 53),
	}
	for len(keys) < random {
		switch f := math.Float64frombits(rng.Uint64()); {
		case math.IsNaN(f) || math.IsInf(f, 0):
		case rng.Intn(3) == 0:
			keys = append(keys, float64(rng.Int63n(1<<53+1)))
		default:
			keys = append(keys, f)
		}
	}
	slices.Sort(keys)
	return slices.CompactFunc(keys, func(a, b float64) bool {
		return math.Float64bits(a) == math.Float64bits(b)
	})
}

// TestReplyBytesMatchFmt: GET, MGET and SCAN replies are byte for byte
// the fmt "VALUE %d" and "KEY %.17g %d" lines, for edge-case keys and
// payloads up to MaxUint64.
func TestReplyBytesMatchFmt(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	st := &stubStore{keys: edgeKeys(rng, 4000)}
	for i := range st.keys {
		switch i % 4 {
		case 0:
			st.vals = append(st.vals, math.MaxUint64)
		case 1:
			st.vals = append(st.vals, uint64(i))
		default:
			st.vals = append(st.vals, rng.Uint64())
		}
	}
	c := serveSteps(t, st)
	check := func(req, want string) {
		t.Helper()
		if got := c.do([]byte(req)); string(got) != want {
			t.Fatalf("%q -> %q, want %q", req, got, want)
		}
	}

	var scan strings.Builder
	for i, k := range st.keys {
		fmt.Fprintf(&scan, "KEY %.17g %d\n", k, st.vals[i])
	}
	scan.WriteString("END\n")
	check(fmt.Sprintf("SCAN %.17g %d\n", -math.MaxFloat64, len(st.keys)), scan.String())

	var mget, mwant strings.Builder
	for i, k := range st.keys {
		v, _ := st.Get(k)
		check(fmt.Sprintf("GET %.17g\n", k), fmt.Sprintf("VALUE %d\n", v))
		if i%64 == 0 {
			mget.Reset()
			mwant.Reset()
			mget.WriteString("MGET")
		}
		fmt.Fprintf(&mget, " %.17g", k)
		fmt.Fprintf(&mwant, "VALUE %d\n", v)
		if i%64 == 63 || i == len(st.keys)-1 {
			miss := math.Nextafter(k, math.Inf(1))
			if _, found := st.Get(miss); !found && !math.IsInf(miss, 0) {
				fmt.Fprintf(&mget, " %.17g", miss)
				mwant.WriteString("NOTFOUND\n")
			}
			check(mget.String()+"\n", mwant.String()+"END\n")
		}
	}
	check("GET 0.5\n", "NOTFOUND\n")
}

// FuzzSplitFields: the tokenizer splits any line exactly as
// strings.Fields, keeps what dst already holds, and the command word
// upper-cases exactly as strings.ToUpper.
func FuzzSplitFields(f *testing.F) {
	for _, s := range []string{
		"", " ", "\t \r\n", "\n", "GET 1", " get\t1\r\n", "MSET 1 2  3\t4\v\f",
		"SET 1 2\u0085", "a\u00a0b", "\u0085", " GET 1", "x\xffy z",
		" SCAN 0 5　", "ſet 1 2", "REPLICATE 1 2",
	} {
		f.Add(s)
	}
	f.Fuzz(func(t *testing.T, line string) {
		prefix := []byte("prefix")
		got := splitFields([][]byte{prefix}, []byte(line))
		want := strings.Fields(line)
		if len(got) != len(want)+1 || !bytes.Equal(got[0], prefix) {
			t.Fatalf("splitFields(%q) = %q, want %q after the prefix", line, got, want)
		}
		for i, w := range want {
			if string(got[i+1]) != w {
				t.Fatalf("splitFields(%q) field %d = %q, want %q", line, i, got[i+1], w)
			}
		}
		if len(want) > 0 {
			var c session
			if up := c.upperCmd([]byte(want[0])); string(up) != strings.ToUpper(want[0]) {
				t.Fatalf("upperCmd(%q) = %q, want %q", want[0], up, strings.ToUpper(want[0]))
			}
		}
	})
}

// failConn is an in-memory connection whose writes fail after the
// first one, a peer that stopped reading.
type failConn struct {
	in     io.Reader
	writes int
}

func (c *failConn) Read(p []byte) (int, error) { return c.in.Read(p) }

func (c *failConn) Write(p []byte) (int, error) {
	if c.writes++; c.writes > 1 {
		return 0, io.ErrClosedPipe
	}
	return len(p), nil
}

// TestWriteFailureStopsCommands: once a reply cannot be written, Handle
// runs none of the commands still buffered behind it.
func TestWriteFailureStopsCommands(t *testing.T) {
	idx := alex.NewSharded(2)
	c := &failConn{in: strings.NewReader("SET 1 10\nSET 2 20\nSET 3 30\nMSET 4 40 5 50\nDEL 1\n")}
	New(idx).Handle(c)
	// SET 2 ran before its reply failed to go out; nothing after it did.
	for k, want := range map[float64]bool{1: true, 2: true, 3: false, 4: false, 5: false} {
		if _, ok := idx.Get(k); ok != want {
			t.Errorf("key %v present = %v, want %v", k, ok, want)
		}
	}
}
