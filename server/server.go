// Package server implements the line-oriented KV protocol of cmd/alexkv
// on top of any thread-safe index (alex.ShardedIndex for multi-core
// parallelism, alex.SyncIndex for the coarse-grained wrapper). It lives
// outside internal/ so the protocol handling is testable and reusable
// by embedders.
package server

import (
	"bufio"
	"bytes"
	"errors"
	"fmt"
	"io"
	"math"
	"net"
	"strconv"
	"sync"
	"time"
	"unicode/utf8"

	alex "repro"
	"repro/internal/repl"
	"repro/internal/wal"
)

// Store is the thread-safe index surface the protocol needs;
// *alex.SyncIndex, *alex.ShardedIndex and *alex.DurableIndex all
// satisfy it. Implementations must be safe for concurrent use — every
// connection runs on its own goroutine.
//
// Flush and Close are the durability lifecycle: Flush blocks until
// every acknowledged write is on stable storage and Close releases the
// store's resources (for the in-memory indexes both are no-ops). The
// server never calls them itself — the owner does, after Server.Close
// has drained the connection handlers.
type Store interface {
	Get(key float64) (uint64, bool)
	Insert(key float64, payload uint64) bool
	Delete(key float64) bool
	GetBatch(keys []float64) (payloads []uint64, found []bool)
	GetBatchInto(keys []float64, payloads []uint64, found []bool)
	InsertBatch(keys []float64, payloads []uint64) int
	DeleteBatch(keys []float64) int
	ScanN(start float64, max int) ([]float64, []uint64)
	ScanNInto(start float64, max int, keys []float64, payloads []uint64) ([]float64, []uint64)
	Len() int
	Stats() alex.Stats
	IndexSizeBytes() int
	DataSizeBytes() int
	Flush() error
	Close() error
}

// Checkpointer is the optional Store extension behind SAVE and BGSAVE;
// *alex.DurableIndex implements it. SAVE runs a synchronous checkpoint,
// BGSAVE hands the request to the store's background checkpointer.
type Checkpointer interface {
	Checkpoint() error
	TriggerCheckpoint()
}

// WALStatser is the optional Store extension behind WALSTATS.
type WALStatser interface {
	WALStats() alex.WALStats
}

// Degrader is the optional Store extension reporting the poisoned
// read-only state behind HEALTH and the degraded write rejection;
// *alex.DurableIndex implements it. A non-nil Degraded means a
// durability failure occurred: the store rejects mutations (wrapping
// alex.ErrDegraded) while reads keep serving.
type Degrader interface {
	Degraded() error
}

// Replicator is the optional Store extension behind the primary side
// of WAL-shipping replication (REPLINFO, SNAPSHOT and REPLICATE);
// *alex.DurableIndex implements it.
type Replicator interface {
	ReplicationPosition() (seg uint64, off int64)
	NewTailer(seg uint64, off int64) (*wal.Tailer, error)
	SnapshotForReplication() (rc io.ReadCloser, size int64, startSeg uint64, err error)
	RegisterFollower(addr string, seg uint64, off int64) *alex.FollowerHandle
	Followers() []alex.FollowerInfo
	Checkpoints() uint64
}

// ReplicaStatuser is the optional Store extension behind REPLINFO on a
// read replica; repl.Follower implements it.
type ReplicaStatuser interface {
	ReplicaStatus() (source string, connected bool, seg uint64, off int64)
}

// The three index wrappers satisfy the Store surface.
var (
	_ Store = (*alex.SyncIndex)(nil)
	_ Store = (*alex.ShardedIndex)(nil)
	_ Store = (*alex.DurableIndex)(nil)

	_ Checkpointer = (*alex.DurableIndex)(nil)
	_ WALStatser   = (*alex.DurableIndex)(nil)
	_ Replicator   = (*alex.DurableIndex)(nil)
	_ Degrader     = (*alex.DurableIndex)(nil)
)

// Server handles connections speaking the alexkv protocol against one
// shared thread-safe index.
type Server struct {
	idx Store
	dg  Degrader // idx as a Degrader, nil when it is not one

	// ReadOnly rejects every mutating command ("ERR read-only
	// replica"), the replica mode of a server fed by a repl.Follower.
	// Set before Serve.
	ReadOnly bool

	// HeartbeatEvery is how often an idle REPLICATE stream sends a
	// header-only heartbeat frame so followers can run a read deadline
	// against a hung primary. 0 picks the 2s default; negative disables
	// heartbeats. Set before Serve.
	HeartbeatEvery time.Duration

	// StreamWriteTimeout bounds each REPLICATE flush to the follower: a
	// follower that stops reading (hung peer, full TCP window) ends the
	// stream instead of pinning the handler forever. 0 picks the 30s
	// default. Set before Serve.
	StreamWriteTimeout time.Duration

	stop chan struct{} // closed first in Close; ends REPLICATE streams

	mu       sync.Mutex
	closed   bool
	conns    map[net.Conn]struct{}
	handlers sync.WaitGroup
}

// New returns a server over idx.
func New(idx Store) *Server {
	dg, _ := idx.(Degrader)
	return &Server{idx: idx, dg: dg, conns: make(map[net.Conn]struct{}), stop: make(chan struct{})}
}

// Serve accepts connections until the listener is closed; each
// connection is handled on its own goroutine.
func (s *Server) Serve(ln net.Listener) error {
	for {
		conn, err := ln.Accept()
		if err != nil {
			if errors.Is(err, net.ErrClosed) {
				return nil
			}
			return err
		}
		s.mu.Lock()
		if s.closed {
			s.mu.Unlock()
			conn.Close()
			return nil
		}
		s.conns[conn] = struct{}{}
		s.handlers.Add(1)
		s.mu.Unlock()
		go func() {
			defer func() {
				s.mu.Lock()
				delete(s.conns, conn)
				s.mu.Unlock()
				conn.Close()
				s.handlers.Done()
			}()
			s.Handle(conn)
		}()
	}
}

// Close terminates all active connections and waits for their handlers
// to finish the command in flight, so the caller can safely close the
// Store afterwards (the graceful-shutdown sequence of cmd/alexkv).
func (s *Server) Close() {
	s.mu.Lock()
	if !s.closed {
		s.closed = true
		// Stop first: a REPLICATE handler parked at the live WAL tail
		// holds no connection read, so only this channel unblocks it.
		close(s.stop)
	}
	for c := range s.conns {
		c.Close()
	}
	s.mu.Unlock()
	s.handlers.Wait()
}

// maxReplyLine bounds one reply line built by append ("KEY " + a
// %.17g float + " " + a uint64 + "\n" is at most 50 bytes).
const maxReplyLine = 64

// maxKeptFields bounds the field slice and the MSET/MDEL batch
// scratch a connection keeps between commands, so one huge MSET does
// not pin its token table or its key/value arrays for the
// connection's lifetime.
const maxKeptFields = 4096

// session is the per-connection state of Handle. Its buffers are
// reused across commands, so a warm connection parses a request and
// formats its reply without allocating.
type session struct {
	rw     io.ReadWriter
	w      *bufio.Writer
	fields [][]byte // the current line's fields, aliasing the scanner's buffer
	cmd    [16]byte // the upper-cased command word

	// keys and vals are MSET/MDEL's parsed batch, reused across
	// commands like fields.
	keys []float64
	vals []uint64
}

// Handle speaks the protocol on one stream until EOF or QUIT. Exposed
// for tests (net.Pipe) and embedding.
func (s *Server) Handle(rw io.ReadWriter) {
	sc := bufio.NewScanner(rw)
	// 1 MiB lines: a pipelined MSET of tens of thousands of pairs is the
	// workload the batch commands exist for.
	sc.Buffer(make([]byte, 64*1024), 1<<20)
	c := &session{rw: rw, w: bufio.NewWriter(rw)}
	defer c.w.Flush()
	for sc.Scan() {
		if c.fields = splitFields(c.fields[:0], sc.Bytes()); len(c.fields) == 0 {
			continue
		}
		if quit := s.dispatch(c); quit {
			return
		}
		if cap(c.fields) > maxKeptFields {
			c.fields = nil
		}
		if cap(c.keys) > maxKeptFields || cap(c.vals) > maxKeptFields {
			c.keys, c.vals = nil, nil
		}
		if err := c.w.Flush(); err != nil {
			return
		}
	}
	if err := sc.Err(); err != nil {
		// Tell the client why the connection is going away (e.g. a
		// command line beyond the buffer limit) instead of a bare reset,
		// then drain a bounded amount of the already-sent input so the
		// close doesn't RST the reply away before the client reads it.
		fmt.Fprintf(c.w, "ERR %v\n", err)
		if c.w.Flush() == nil {
			io.Copy(io.Discard, io.LimitReader(rw, 1<<20))
		}
	}
}

// asciiSpace marks the bytes strings.Fields splits on in ASCII input.
var asciiSpace = [256]bool{'\t': true, '\n': true, '\v': true, '\f': true, '\r': true, ' ': true}

// splitFields appends the whitespace-separated fields of line to dst,
// exactly as strings.Fields splits them. A line with a non-ASCII byte
// takes bytes.Fields, which knows the Unicode spaces.
func splitFields(dst [][]byte, line []byte) [][]byte {
	n, start := len(dst), -1
	for i, ch := range line {
		if ch >= utf8.RuneSelf {
			return append(dst[:n], bytes.Fields(line)...)
		}
		if asciiSpace[ch] {
			if start >= 0 {
				dst = append(dst, line[start:i:i])
				start = -1
			}
		} else if start < 0 {
			start = i
		}
	}
	if start >= 0 {
		dst = append(dst, line[start:len(line):len(line)])
	}
	return dst
}

// upperCmd returns the command word upper-cased as strings.ToUpper
// would, in c's buffer when it is short ASCII, the only shape a known
// command has.
func (c *session) upperCmd(word []byte) []byte {
	if len(word) > len(c.cmd) {
		return bytes.ToUpper(word)
	}
	for i, ch := range word {
		if ch >= utf8.RuneSelf {
			return bytes.ToUpper(word)
		}
		if 'a' <= ch && ch <= 'z' {
			ch -= 'a' - 'A'
		}
		c.cmd[i] = ch
	}
	return c.cmd[:len(word)]
}

// replyBuf returns w's free buffer for appending one reply line of at
// most maxReplyLine bytes, flushing first if it could not hold one, so
// the append never reallocates.
func replyBuf(w *bufio.Writer) []byte {
	if w.Available() < maxReplyLine {
		w.Flush()
	}
	return w.AvailableBuffer()
}

// writeUint writes "<prefix><v>\n".
func writeUint(w *bufio.Writer, prefix string, v uint64) {
	b := append(replyBuf(w), prefix...)
	b = strconv.AppendUint(b, v, 10)
	w.Write(append(b, '\n'))
}

// writeKey writes one SCAN line, "KEY <k as %.17g> <v>\n".
func writeKey(w *bufio.Writer, k float64, v uint64) {
	b := append(replyBuf(w), "KEY "...)
	b = strconv.AppendFloat(b, k, 'g', 17, 64)
	b = append(b, ' ')
	b = strconv.AppendUint(b, v, 10)
	w.Write(append(b, '\n'))
}

// dispatch executes the command in c.fields; it reports whether the
// connection is done (QUIT, or REPLICATE took it over).
func (s *Server) dispatch(c *session) bool {
	w := c.w
	cmd := c.upperCmd(c.fields[0])
	args := c.fields[1:]
	if s.ReadOnly {
		switch string(cmd) {
		case "SET", "DEL", "MSET", "MDEL", "SAVE", "BGSAVE":
			fmt.Fprintln(w, "ERR read-only replica: writes go to the primary")
			return false
		}
	}
	if s.dg != nil {
		switch string(cmd) {
		case "SET", "DEL", "MSET", "MDEL":
			// Degraded fast path: a poisoned store rejects every write
			// with the cause; reads below keep serving. A degradation
			// that lands mid-command instead surfaces through
			// writeGuarded.
			if err := s.dg.Degraded(); err != nil {
				fmt.Fprintf(w, "ERR degraded: %v\n", err)
				return false
			}
		}
	}
	switch string(cmd) {
	case "GET":
		key, err := wantKey(args, 1)
		if err != nil {
			fmt.Fprintf(w, "ERR %v\n", err)
			return false
		}
		if v, ok := s.idx.Get(key); ok {
			writeUint(w, "VALUE ", v)
		} else {
			w.WriteString("NOTFOUND\n")
		}
	case "SET":
		if len(args) != 2 {
			fmt.Fprintln(w, "ERR usage: SET <key> <value>")
			return false
		}
		key, err := parseKey(args[0])
		if err != nil {
			fmt.Fprintf(w, "ERR %v\n", err)
			return false
		}
		val, err := strconv.ParseUint(string(args[1]), 10, 64)
		if err != nil {
			fmt.Fprintf(w, "ERR bad value: %v\n", err)
			return false
		}
		writeGuarded(w, func() {
			if s.idx.Insert(key, val) {
				w.WriteString("OK inserted\n")
			} else {
				w.WriteString("OK updated\n")
			}
		})
	case "DEL":
		key, err := wantKey(args, 1)
		if err != nil {
			fmt.Fprintf(w, "ERR %v\n", err)
			return false
		}
		writeGuarded(w, func() {
			if s.idx.Delete(key) {
				w.WriteString("OK\n")
			} else {
				w.WriteString("NOTFOUND\n")
			}
		})
	case "MGET":
		s.mget(w, args)
	case "MSET":
		if len(args) < 2 || len(args)%2 != 0 {
			fmt.Fprintln(w, "ERR usage: MSET <key> <value> [<key> <value> ...]")
			return false
		}
		// The session's batch scratch is safe to reuse: no store
		// retains the slices it is handed (TestBatchWritesRetainNothing).
		keys, vals := c.keys[:0], c.vals[:0]
		for i := 0; i < len(args); i += 2 {
			key, err := parseKey(args[i])
			if err != nil {
				fmt.Fprintf(w, "ERR %v\n", err)
				return false
			}
			val, err := strconv.ParseUint(string(args[i+1]), 10, 64)
			if err != nil {
				fmt.Fprintf(w, "ERR bad value: %v\n", err)
				return false
			}
			keys = append(keys, key)
			vals = append(vals, val)
		}
		c.keys, c.vals = keys, vals
		writeGuarded(w, func() {
			writeUint(w, "OK ", uint64(s.idx.InsertBatch(keys, vals)))
		})
	case "MDEL":
		keys, err := parseKeys(args, 1, c.keys[:0])
		if err != nil {
			fmt.Fprintf(w, "ERR %v\n", err)
			return false
		}
		c.keys = keys
		writeGuarded(w, func() {
			writeUint(w, "OK ", uint64(s.idx.DeleteBatch(keys)))
		})
	case "SCAN":
		s.scan(w, args)
	case "LEN":
		fmt.Fprintf(w, "LEN %d\n", s.idx.Len())
	case "STATS":
		st := s.idx.Stats()
		fmt.Fprintf(w, "STATS %d %d %d %d\n",
			st.NumLeaves, st.Height, s.idx.IndexSizeBytes(), s.idx.DataSizeBytes())
	case "FLUSH":
		if err := s.idx.Flush(); err != nil {
			fmt.Fprintf(w, "ERR %v\n", err)
		} else {
			fmt.Fprintln(w, "OK")
		}
	case "SAVE":
		cp, ok := s.idx.(Checkpointer)
		if !ok {
			fmt.Fprintln(w, "ERR store is not durable")
			return false
		}
		if err := cp.Checkpoint(); err != nil {
			fmt.Fprintf(w, "ERR %v\n", err)
		} else {
			fmt.Fprintln(w, "OK")
		}
	case "BGSAVE":
		cp, ok := s.idx.(Checkpointer)
		if !ok {
			fmt.Fprintln(w, "ERR store is not durable")
			return false
		}
		cp.TriggerCheckpoint()
		fmt.Fprintln(w, "OK scheduled")
	case "WALSTATS":
		ws, ok := s.idx.(WALStatser)
		if !ok {
			fmt.Fprintln(w, "ERR store is not durable")
			return false
		}
		st := ws.WALStats()
		fmt.Fprintf(w, "WAL %d %d %d %d %d %d %d %d\n",
			st.Appends, st.Syncs, st.Bytes, st.Checkpoints, st.Replayed,
			st.Followers, st.MaxFollowerLagBytes, boolInt(st.Degraded))
	case "HEALTH":
		// One line a probe can act on: OK (writable), OK read-only (a
		// replica — healthy but not writable here), or DEGRADED with
		// the poisoning cause.
		if s.dg != nil {
			if err := s.dg.Degraded(); err != nil {
				fmt.Fprintf(w, "DEGRADED %v\n", err)
				return false
			}
		}
		if s.ReadOnly {
			fmt.Fprintln(w, "OK read-only")
		} else {
			fmt.Fprintln(w, "OK")
		}
	case "REPLINFO":
		switch ix := s.idx.(type) {
		case Replicator:
			seg, off := ix.ReplicationPosition()
			fmt.Fprintln(w, "ROLE primary")
			fmt.Fprintf(w, "POSITION %d %d\n", seg, off)
			fmt.Fprintf(w, "CHECKPOINTS %d\n", ix.Checkpoints())
			if s.dg != nil && s.dg.Degraded() != nil {
				fmt.Fprintln(w, "DEGRADED true")
			}
			for _, f := range ix.Followers() {
				fmt.Fprintf(w, "FOLLOWER %s %d %d %d\n", f.Addr, f.Seg, f.Off, f.LagBytes)
			}
			fmt.Fprintln(w, "END")
		case ReplicaStatuser:
			source, connected, seg, off := ix.ReplicaStatus()
			fmt.Fprintln(w, "ROLE replica")
			fmt.Fprintf(w, "SOURCE %s\n", source)
			fmt.Fprintf(w, "CONNECTED %v\n", connected)
			fmt.Fprintf(w, "APPLIED %d %d\n", seg, off)
			fmt.Fprintln(w, "END")
		default:
			fmt.Fprintln(w, "ERR store does not replicate")
		}
	case "SNAPSHOT":
		rep, ok := s.idx.(Replicator)
		if !ok {
			fmt.Fprintln(w, "ERR store does not replicate")
			return false
		}
		rc, size, startSeg, err := rep.SnapshotForReplication()
		if err != nil {
			fmt.Fprintf(w, "ERR %v\n", err)
			return false
		}
		fmt.Fprintf(w, "SNAPSHOT %d %d\n", size, startSeg)
		if rc != nil {
			_, err := io.CopyN(w, rc, size)
			rc.Close()
			if err != nil {
				// Mid-binary-stream there is no way to signal the error
				// in-band; the short body desynchronizes the client,
				// which drops the connection and retries.
				return true
			}
		}
	case "REPLICATE":
		// REPLICATE takes over the connection as a binary record stream;
		// it never returns to the command loop.
		s.handleReplicate(c.rw, w, args)
		return true
	case "QUIT":
		fmt.Fprintln(w, "BYE")
		return true
	default:
		fmt.Fprintf(w, "ERR unknown command %q\n", cmd)
	}
	return false
}

// mget serves MGET from pooled buffers. MGET and SCAN live outside
// dispatch so their deferred Put is open-coded: dispatch has too many
// returns for that, and would run the runtime's deferreturn on every
// command.
func (s *Server) mget(w *bufio.Writer, args [][]byte) {
	sc := scratchPool.Get().(*batchScratch)
	defer scratchPool.Put(sc)
	keys, err := parseKeys(args, 1, sc.keys[:0])
	sc.keys = keys
	if err != nil {
		fmt.Fprintf(w, "ERR %v\n", err)
		return
	}
	vals, found := sc.results(len(keys))
	s.idx.GetBatchInto(keys, vals, found)
	for i := range keys {
		if found[i] {
			writeUint(w, "VALUE ", vals[i])
		} else {
			w.WriteString("NOTFOUND\n")
		}
	}
	w.WriteString("END\n")
}

// scan serves SCAN from pooled buffers.
func (s *Server) scan(w *bufio.Writer, args [][]byte) {
	if len(args) != 2 {
		fmt.Fprintln(w, "ERR usage: SCAN <start> <n>")
		return
	}
	start, err := parseKey(args[0])
	if err != nil {
		fmt.Fprintf(w, "ERR bad start: %v\n", err)
		return
	}
	n, err := strconv.Atoi(string(args[1]))
	if err != nil || n < 0 {
		fmt.Fprintln(w, "ERR bad count")
		return
	}
	const maxScan = 10000
	if n > maxScan {
		n = maxScan
	}
	sc := scratchPool.Get().(*batchScratch)
	defer scratchPool.Put(sc)
	keys, vals := s.idx.ScanNInto(start, n, sc.keys[:0], sc.vals[:0])
	sc.keys, sc.vals = keys, vals
	for i := range keys {
		writeKey(w, keys[i], vals[i])
	}
	w.WriteString("END\n")
}

// handleReplicate serves one follower's record stream: validate the
// requested position, reply STREAM (or TRUNCATED — the re-bootstrap
// signal), then ship every committed record from there on, blocking at
// the live tail until the next group commit lands. The stream ends
// only when the connection dies, the server closes, or the tailer hits
// truncated/corrupt history (the follower reconnects and re-syncs).
func (s *Server) handleReplicate(rw io.ReadWriter, w *bufio.Writer, args [][]byte) {
	rep, ok := s.idx.(Replicator)
	if !ok {
		fmt.Fprintln(w, "ERR store does not replicate")
		return
	}
	if len(args) != 2 {
		fmt.Fprintln(w, "ERR usage: REPLICATE <segment> <offset>")
		return
	}
	seg, err1 := strconv.ParseUint(string(args[0]), 10, 64)
	off, err2 := strconv.ParseInt(string(args[1]), 10, 64)
	if err1 != nil || err2 != nil || off < 0 {
		fmt.Fprintln(w, "ERR bad position")
		return
	}
	tl, err := rep.NewTailer(seg, off)
	if err != nil {
		if errors.Is(err, wal.ErrTruncated) {
			fmt.Fprintln(w, "TRUNCATED")
		} else {
			fmt.Fprintf(w, "ERR %v\n", err)
		}
		return
	}
	defer tl.Close()
	fmt.Fprintln(w, "STREAM")
	if w.Flush() != nil {
		return
	}

	addr := "?"
	if c, ok := rw.(net.Conn); ok {
		addr = c.RemoteAddr().String()
	}
	h := rep.RegisterFollower(addr, tl.Seg(), tl.Off())
	defer h.Unregister()

	// The follower sends nothing after REPLICATE, so a pending read
	// returns only when the connection dies — the signal that must end
	// a stream parked at the live tail waiting for the next commit.
	// Server.Close is the other such signal.
	stop := make(chan struct{})
	connDead := make(chan struct{})
	go func() {
		var buf [64]byte
		for {
			if _, err := rw.Read(buf[:]); err != nil {
				close(connDead)
				return
			}
		}
	}()
	go func() {
		select {
		case <-s.stop:
		case <-connDead:
		}
		close(stop)
	}()

	heartbeat := s.HeartbeatEvery
	if heartbeat == 0 {
		heartbeat = 2 * time.Second
	}
	writeTimeout := s.StreamWriteTimeout
	if writeTimeout <= 0 {
		writeTimeout = 30 * time.Second
	}
	conn, _ := rw.(net.Conn)
	// armWrite bounds the next write burst: a follower that stops
	// reading fails the flush at the deadline instead of pinning this
	// handler (and its tailer's file handle) forever.
	armWrite := func() {
		if conn != nil {
			conn.SetWriteDeadline(time.Now().Add(writeTimeout))
		}
	}

	var enc []byte
	for {
		rec, rseg, roff, err := tl.NextTimeout(stop, heartbeat)
		if errors.Is(err, wal.ErrIdle) {
			// Nothing to ship: prove liveness so the follower's idle
			// deadline only fires on a genuinely hung or dead primary.
			pseg, poff := rep.ReplicationPosition()
			armWrite()
			if _, err := w.Write(repl.AppendHeartbeat(enc[:0], pseg, poff)); err != nil {
				return
			}
			if w.Flush() != nil {
				return
			}
			continue
		}
		if err != nil {
			return
		}
		enc = repl.AppendFrameHeader(enc[:0], rseg, roff)
		if enc, err = wal.AppendRecord(enc, rec); err != nil {
			return
		}
		armWrite()
		if _, err := w.Write(enc); err != nil {
			return
		}
		h.Advance(rseg, roff)
		// Flush before a Next that would block, so the follower sees
		// the live tail without per-record flush syscalls mid-burst.
		if !tl.Pending() && w.Flush() != nil {
			return
		}
	}
}

// writeGuarded runs one mutating command body, converting the
// degradation panic of the Store's bool-returning mutators (an error
// wrapping alex.ErrDegraded) into an in-band "ERR degraded" reply.
// Anything else keeps panicking — only the defined degraded rejection
// is a protocol-level outcome.
func writeGuarded(w *bufio.Writer, fn func()) {
	defer func() {
		if r := recover(); r != nil {
			if e, ok := r.(error); ok && errors.Is(e, alex.ErrDegraded) {
				fmt.Fprintf(w, "ERR degraded: %v\n", e)
				return
			}
			panic(r)
		}
	}()
	fn()
}

func boolInt(b bool) int {
	if b {
		return 1
	}
	return 0
}

func wantKey(args [][]byte, n int) (float64, error) {
	if len(args) != n {
		return 0, errors.New("wrong argument count")
	}
	return parseKey(args[0])
}

// parseKey parses one key, rejecting the non-finite values the index
// panics on ("NaN", "Inf" and friends parse as valid floats).
func parseKey(arg []byte) (float64, error) {
	k, err := strconv.ParseFloat(string(arg), 64)
	if err != nil {
		return 0, fmt.Errorf("bad key: %v", err)
	}
	if math.IsNaN(k) || math.IsInf(k, 0) {
		return 0, fmt.Errorf("bad key: %q is not finite", arg)
	}
	return k, nil
}

// parseKeys parses at least min keys from args, appending them to keys,
// so per-connection and pooled command buffers are reused across
// requests.
func parseKeys(args [][]byte, min int, keys []float64) ([]float64, error) {
	if len(args) < min {
		return keys, errors.New("wrong argument count")
	}
	for _, a := range args {
		k, err := parseKey(a)
		if err != nil {
			return keys, err
		}
		keys = append(keys, k)
	}
	return keys, nil
}

// batchScratch pools the per-command buffers of the MGET and SCAN
// handlers: with the index's *Into read variants underneath, a batch
// read served from a warm pool performs no per-request allocations in
// the store at all.
type batchScratch struct {
	keys  []float64
	vals  []uint64
	found []bool
}

// results returns vals/found slices of length n, growing the backing
// arrays only when a larger batch than ever before arrives.
func (sc *batchScratch) results(n int) ([]uint64, []bool) {
	if cap(sc.vals) < n {
		sc.vals = make([]uint64, n)
	}
	if cap(sc.found) < n {
		sc.found = make([]bool, n)
	}
	return sc.vals[:n], sc.found[:n]
}

var scratchPool = sync.Pool{New: func() any { return new(batchScratch) }}
