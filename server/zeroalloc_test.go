//go:build !race

// Race instrumentation allocates, so the zero-allocation contract is
// only checkable in a plain build.

package server

import (
	"fmt"
	"strings"
	"testing"
)

// TestHandleZeroAlloc: on a warm connection the protocol layer parses
// each hot command and formats its reply without allocating, whatever
// the command's letter case, given a store that does not allocate.
func TestHandleZeroAlloc(t *testing.T) {
	st := &stubStore{}
	for i := 0; i < 1000; i++ {
		st.keys = append(st.keys, float64(i))
		st.vals = append(st.vals, uint64(i)*7)
	}
	var mget, mwant, scan strings.Builder
	mget.WriteString("mGet")
	for i := 0; i < 64; i++ {
		fmt.Fprintf(&mget, " %d", i*3)
		fmt.Fprintf(&mwant, "VALUE %d\n", i*21)
	}
	for i := 0; i < 100; i++ {
		fmt.Fprintf(&scan, "KEY %d %d\n", 500+i, (500+i)*7)
	}
	c := serveSteps(t, st)
	for _, tc := range []struct{ name, req, want string }{
		{"GET hit", "GET 42\n", "VALUE 294\n"},
		{"get miss", "get 42.5\n", "NOTFOUND\n"},
		{"SET insert", "SET 42.5 1\n", "OK inserted\n"},
		{"set update", "set 42 1\n", "OK updated\n"},
		{"Set update", "Set 7 1\n", "OK updated\n"},
		{"DEL", "DEL 42\n", "OK\n"},
		{"del miss", "del 42.5\n", "NOTFOUND\n"},
		{"MGET 64", mget.String() + "\n", mwant.String() + "END\n"},
		{"SCAN 100", "Scan 500 100\n", scan.String() + "END\n"},
		{"scan 100", "scan 500 100\r\n", scan.String() + "END\n"},
	} {
		req := []byte(tc.req)
		if got := c.do(req); string(got) != tc.want {
			t.Fatalf("%s: reply %q, want %q", tc.name, got, tc.want)
		}
		if allocs := testing.AllocsPerRun(100, func() { c.do(req) }); allocs != 0 {
			t.Errorf("%s: %v allocations per request, want 0", tc.name, allocs)
		}
	}
}
