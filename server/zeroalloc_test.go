//go:build !race

// Race instrumentation allocates, so the zero-allocation contract is
// only checkable in a plain build.

package server

import (
	"fmt"
	"strings"
	"testing"

	alex "repro"
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
	var mget, mwant, mset, mdel, scan strings.Builder
	mget.WriteString("mGet")
	mset.WriteString("MSET")
	mdel.WriteString("mdel")
	for i := 0; i < 64; i++ {
		fmt.Fprintf(&mget, " %d", i*3)
		fmt.Fprintf(&mwant, "VALUE %d\n", i*21)
		fmt.Fprintf(&mset, " %d.5 %d", i*3, i)
		fmt.Fprintf(&mdel, " %d", i*3)
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
		{"MSET 64", mset.String() + "\n", "OK 64\n"},
		{"MDEL 64", mdel.String() + "\n", "OK 64\n"},
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

// TestHandleSetZeroAllocSharded: SET against a real ShardedIndex — the
// server's own store — allocates nothing per request, from the command
// parser down to the gapped leaf, when the write overwrites a key or
// takes back the gap a DEL just left.
func TestHandleSetZeroAllocSharded(t *testing.T) {
	keys := make([]float64, 20000)
	for i := range keys {
		keys[i] = float64(i) * 1.5
	}
	idx, err := alex.LoadSharded(4, keys, nil)
	if err != nil {
		t.Fatal(err)
	}
	c := serveSteps(t, idx)
	for _, tc := range []struct {
		name string
		reqs []string
		want []string
	}{
		{"SET update", []string{"SET 4500 7\n"}, []string{"OK updated\n"}},
		{"DEL+SET", []string{"DEL 4500\n", "SET 4500 7\n"}, []string{"OK\n", "OK inserted\n"}},
	} {
		reqs := make([][]byte, len(tc.reqs))
		for i, r := range tc.reqs {
			reqs[i] = []byte(r)
		}
		round := func() {
			for i, req := range reqs {
				if got := c.do(req); string(got) != tc.want[i] {
					t.Fatalf("%s: %q replied %q, want %q", tc.name, req, got, tc.want[i])
				}
			}
		}
		round()
		if allocs := testing.AllocsPerRun(100, round); allocs != 0 {
			t.Errorf("%s: %v allocations per round, want 0", tc.name, allocs)
		}
	}
}
