package main

import (
	"bufio"
	"encoding/binary"
	"fmt"
	"os"
	"path/filepath"
	"slices"
	"strings"
	"sync"

	alex "repro"
	"repro/internal/faultfs"
	"repro/server"
)

// Span names, in the order the span file's header lists them.
const (
	spClientGet uint8 = iota
	spClientSet
	spClientScan
	spStoreGet
	spStoreSet
	spStoreScan
	spIndexGet
	spIndexSet
	spIndexScan
	spFSWrite
	spFSSync
	spFSRename
	spFSOpen
	numSpanNames
)

var spanNames = [numSpanNames]string{
	"client.get", "client.set", "client.scan",
	"store.get", "store.set", "store.scan",
	"index.get", "index.insert", "index.scan",
	"fs.write", "fs.sync", "fs.rename", "fs.open",
}

// span is one timed call; times are clock nanoseconds.
type span struct {
	start, end int64
	name       uint8
}

// tracedStore is the Store decorator a traced run hands to server.New:
// it records a store.<op> span around every Get, Insert and ScanNInto
// the server makes. Each connection gets its own decorator, so the
// spans need no lock and the i-th one belongs to the connection's i-th
// request (each request makes exactly one of these calls).
type tracedStore struct {
	server.Store
	clk   clock
	spans []span
}

func (t *tracedStore) Get(key float64) (uint64, bool) {
	s := t.clk.now()
	v, ok := t.Store.Get(key)
	t.spans = append(t.spans, span{s, t.clk.now(), spStoreGet})
	return v, ok
}

func (t *tracedStore) Insert(key float64, payload uint64) bool {
	s := t.clk.now()
	ok := t.Store.Insert(key, payload)
	t.spans = append(t.spans, span{s, t.clk.now(), spStoreSet})
	return ok
}

func (t *tracedStore) ScanNInto(start float64, max int, keys []float64, payloads []uint64) ([]float64, []uint64) {
	s := t.clk.now()
	k, p := t.Store.ScanNInto(start, max, keys, payloads)
	t.spans = append(t.spans, span{s, t.clk.now(), spStoreScan})
	return k, p
}

// tracedDurable keeps the server's degraded-write check, which it makes
// only on stores that report degradation.
type tracedDurable struct {
	*tracedStore
	d *alex.DurableIndex
}

func (t tracedDurable) Degraded() error { return t.d.Degraded() }

// traceStore wraps st for one connection.
func traceStore(st server.Store, clk clock, n int) (server.Store, *tracedStore) {
	ts := &tracedStore{Store: st, clk: clk, spans: make([]span, 0, n)}
	if d, ok := st.(*alex.DurableIndex); ok {
		return tracedDurable{ts, d}, ts
	}
	return ts, ts
}

// fileClass tells WAL segments from snapshot files in the data dir.
type fileClass uint8

const (
	fileOther fileClass = iota
	fileWAL
	fileSnapshot
)

func classify(name string) fileClass {
	base := filepath.Base(name)
	switch {
	case strings.HasPrefix(base, "wal-"):
		return fileWAL
	case strings.HasPrefix(base, "snapshot"):
		return fileSnapshot
	}
	return fileOther
}

// fsSpan is a span on the filesystem seam.
type fsSpan struct {
	span
	class fileClass
	bytes int
}

// tracedFS is the faultfs.FS decorator a traced kv-durable run passes
// through alex.WithFilesystem: fs.write, fs.sync and fs.rename spans
// around the calls the WAL and the checkpointer make, plus a zero-length
// fs.open mark when a file is created. The WAL writer and the
// checkpointer run on their own goroutines, hence the lock.
type tracedFS struct {
	faultfs.FS
	clk   clock
	mu    sync.Mutex
	spans []fsSpan
}

func (t *tracedFS) add(s fsSpan) {
	t.mu.Lock()
	t.spans = append(t.spans, s)
	t.mu.Unlock()
}

func (t *tracedFS) OpenFile(name string, flag int, perm os.FileMode) (faultfs.File, error) {
	s := t.clk.now()
	f, err := t.FS.OpenFile(name, flag, perm)
	if err != nil {
		return nil, err
	}
	c := classify(name)
	if flag&os.O_CREATE != 0 {
		t.add(fsSpan{span{s, t.clk.now(), spFSOpen}, c, 0})
	}
	return &tracedFile{File: f, fs: t, class: c}, nil
}

func (t *tracedFS) Rename(oldpath, newpath string) error {
	s := t.clk.now()
	err := t.FS.Rename(oldpath, newpath)
	t.add(fsSpan{span{s, t.clk.now(), spFSRename}, classify(oldpath), 0})
	return err
}

type tracedFile struct {
	faultfs.File
	fs    *tracedFS
	class fileClass
}

func (f *tracedFile) Write(p []byte) (int, error) {
	s := f.fs.clk.now()
	n, err := f.File.Write(p)
	f.fs.add(fsSpan{span{s, f.fs.clk.now(), spFSWrite}, f.class, n})
	return n, err
}

func (f *tracedFile) WriteAt(p []byte, off int64) (int, error) {
	s := f.fs.clk.now()
	n, err := f.File.WriteAt(p, off)
	f.fs.add(fsSpan{span{s, f.fs.clk.now(), spFSWrite}, f.class, n})
	return n, err
}

func (f *tracedFile) Sync() error {
	s := f.fs.clk.now()
	err := f.File.Sync()
	f.fs.add(fsSpan{span{s, f.fs.clk.now(), spFSSync}, f.class, 0})
	return err
}

// spanSection is one run of spans written together: the requests of
// one connection (each client span followed by its child store span,
// when the server was traced) or the filesystem spans. span(i) returns
// the i-th of n spans, so the spans are never all held at once.
type spanSection struct {
	source string
	n      int
	span   func(i int) span
}

// requestSection lays out one connection's requests: its recorder
// gives the client.<op> (or index.<op>) spans, each followed by its
// store span when store is not empty.
func requestSection(source string, ops []op, rec *recorder, store []span, base uint8) spanSection {
	client := func(i int) span {
		s := rec.starts[i]
		return span{s, s + int64(rec.durs[i]), base + uint8(ops[i].kind)}
	}
	if len(store) == 0 {
		return spanSection{source, len(rec.durs), client}
	}
	n := min(len(rec.durs), len(store))
	return spanSection{source, 2 * n, func(i int) span {
		if i%2 == 1 {
			return store[i/2]
		}
		return client(i / 2)
	}}
}

// writeSpans writes a traced run's spans to path. Format: the line
// "kvbench-spans 1", one line listing the span names, then per section
// a line "section <source> <count>" followed by count records of
// uvarint(name index), varint(start - previous start in the section),
// uvarint(end - start); times are nanoseconds since the run began.
// Spans of one request are adjacent, parent first.
func writeSpans(path string, sections []spanSection) (err error) {
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	defer func() {
		if cerr := f.Close(); err == nil {
			err = cerr
		}
	}()
	w := bufio.NewWriterSize(f, 1<<20)
	fmt.Fprintf(w, "kvbench-spans 1\n%s\n", strings.Join(spanNames[:], " "))
	var rec []byte
	for _, sec := range sections {
		fmt.Fprintf(w, "section %s %d\n", sec.source, sec.n)
		prev := int64(0)
		for i := 0; i < sec.n; i++ {
			s := sec.span(i)
			rec = binary.AppendUvarint(rec[:0], uint64(s.name))
			rec = binary.AppendVarint(rec, s.start-prev)
			rec = binary.AppendUvarint(rec, uint64(max(0, s.end-s.start)))
			prev = s.start
			if _, err := w.Write(rec); err != nil {
				return err
			}
		}
	}
	if err := w.Flush(); err != nil {
		return err
	}
	// Write the file back now, inside the traced run, rather than in the
	// background during whatever runs next.
	return f.Sync()
}

// selfTimes returns, per op kind, the parent span's duration minus its
// child store span's, for requests whose store call lies inside them.
func selfTimes(ops []op, rec *recorder, store []span) [numKinds][]float64 {
	var out [numKinds][]float64
	for i, d := range rec.durs {
		if i >= len(store) {
			break
		}
		c := store[i]
		s := rec.starts[i]
		if c.start < s || c.end > s+int64(d) {
			continue
		}
		k := ops[i].kind
		out[k] = append(out[k], float64(int64(d)-(c.end-c.start)))
	}
	return out
}

func spanDurations(spans []span, name uint8) []float64 {
	var out []float64
	for _, s := range spans {
		if s.name == name {
			out = append(out, float64(s.end-s.start))
		}
	}
	return out
}

// percentile sorts vs in place and returns its q-quantile.
func percentile(vs []float64, q float64) float64 {
	slices.Sort(vs)
	return quantile(vs, q)
}
