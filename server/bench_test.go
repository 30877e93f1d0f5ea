package server

import (
	"fmt"
	"io"
	"testing"

	alex "repro"
	"repro/internal/datasets"
)

// loopConn hands Handle one request per Read on Handle's own
// goroutine, cycling through reqs n times, and discards the replies, so
// a benchmark times the protocol layer and the store alone.
type loopConn struct {
	reqs [][]byte
	next int
	n    int
}

func (c *loopConn) Read(p []byte) (int, error) {
	if c.next == c.n {
		return 0, io.EOF
	}
	c.next++
	return copy(p, c.reqs[c.next%len(c.reqs)]), nil
}

func (c *loopConn) Write(p []byte) (int, error) { return len(p), nil }

// benchHandle serves b.N requests, formatted by req from preloaded
// keys, over one connection to a ShardedIndex.
func benchHandle(b *testing.B, req func(keys []float64, i int) string) {
	keys := datasets.Generate(datasets.Longitudes, 1<<17, 7)
	idx, err := alex.LoadSharded(8, keys, nil)
	if err != nil {
		b.Fatal(err)
	}
	c := &loopConn{reqs: make([][]byte, 1024), n: b.N}
	for i := range c.reqs {
		c.reqs[i] = []byte(req(keys, i*127%len(keys)))
	}
	b.ReportAllocs()
	b.ResetTimer()
	New(idx).Handle(c)
}

func BenchmarkHandleGet(b *testing.B) {
	benchHandle(b, func(keys []float64, i int) string {
		return fmt.Sprintf("GET %.17g\n", keys[i])
	})
}

func BenchmarkHandleScan100(b *testing.B) {
	benchHandle(b, func(keys []float64, i int) string {
		return fmt.Sprintf("SCAN %.17g 100\n", keys[i])
	})
}

func BenchmarkHandleMGet64(b *testing.B) {
	benchHandle(b, func(keys []float64, i int) string {
		req := "MGET"
		for j := 0; j < 64; j++ {
			req += fmt.Sprintf(" %.17g", keys[(i+j*331)%len(keys)])
		}
		return req + "\n"
	})
}

// BenchmarkHandleSet overwrites existing keys, so the index keeps its
// shape however long the benchmark runs.
func BenchmarkHandleSet(b *testing.B) {
	benchHandle(b, func(keys []float64, i int) string {
		return fmt.Sprintf("SET %.17g %d\n", keys[i], i)
	})
}
