package alex_test

import (
	"fmt"
	"math/rand"
	"sort"
	"sync"
	"testing"

	alex "repro"
	"repro/internal/datasets"
)

// batchOptionSets covers the gapped-array default, the PMA layout, and
// split-on-insert — the configurations whose batch paths differ.
func batchOptionSets() [][]alex.Option {
	return [][]alex.Option{
		nil,
		{alex.WithLayout(alex.PackedMemoryArray)},
		{alex.WithSplitOnInsert(), alex.WithMaxKeysPerLeaf(512)},
	}
}

// assertSameContents fails unless both indexes hold identical elements.
func assertSameContents(t *testing.T, name string, got, want *alex.Index) {
	t.Helper()
	if got.Len() != want.Len() {
		t.Fatalf("%s: Len = %d, want %d", name, got.Len(), want.Len())
	}
	gk, gv := got.ScanN(-1e308, got.Len()+1)
	wk, wv := want.ScanN(-1e308, want.Len()+1)
	for i := range gk {
		if gk[i] != wk[i] || gv[i] != wv[i] {
			t.Fatalf("%s: element %d = (%v,%v), want (%v,%v)", name, i, gk[i], gv[i], wk[i], wv[i])
		}
	}
	if err := got.CheckInvariants(); err != nil {
		t.Fatalf("%s: %v", name, err)
	}
}

// TestBatchEqualsLoop verifies the acceptance property directly: batch
// results are identical to looped single-op results, on random,
// sorted, duplicate-carrying, and empty batches.
func TestBatchEqualsLoop(t *testing.T) {
	rng := rand.New(rand.NewSource(42))
	base := datasets.GenLongitudes(20000, 1)
	fresh := datasets.GenLongitudes(30000, 2)[20000:]

	cases := map[string][]float64{
		"empty":  {},
		"random": append(append([]float64(nil), fresh[:4000]...), base[:300]...),
		"sorted": datasets.Sorted(append(append([]float64(nil), fresh[4000:8000]...), base[300:600]...)),
		"duplicate": func() []float64 {
			ks := append([]float64(nil), fresh[8000:9000]...)
			ks = append(ks, ks[:250]...) // intra-batch duplicates
			return ks
		}(),
	}

	for _, opts := range batchOptionSets() {
		for name, batch := range cases {
			pays := make([]uint64, len(batch))
			for i := range pays {
				pays[i] = uint64(rng.Intn(1 << 30))
			}
			batchIdx, err := alex.Load(base, nil, opts...)
			if err != nil {
				t.Fatal(err)
			}
			loopIdx, err := alex.Load(base, nil, opts...)
			if err != nil {
				t.Fatal(err)
			}

			gotN := batchIdx.InsertBatch(batch, pays)
			wantN := 0
			for i := range batch {
				if loopIdx.Insert(batch[i], pays[i]) {
					wantN++
				}
			}
			if gotN != wantN {
				t.Fatalf("%s: InsertBatch = %d, loop = %d", name, gotN, wantN)
			}
			assertSameContents(t, name+"/insert", batchIdx, loopIdx)

			probe := append(append([]float64(nil), batch...), -1, -2, 1e300)
			vals, found := batchIdx.GetBatch(probe)
			if len(vals) != len(probe) || len(found) != len(probe) {
				t.Fatalf("%s: GetBatch result lengths %d/%d", name, len(vals), len(found))
			}
			for i, k := range probe {
				wv, wok := loopIdx.Get(k)
				if vals[i] != wv || found[i] != wok {
					t.Fatalf("%s: GetBatch[%d] = (%v,%v), Get = (%v,%v)", name, i, vals[i], found[i], wv, wok)
				}
			}

			del := append(append([]float64(nil), batch...), -1, -2)
			gotD := batchIdx.DeleteBatch(del)
			wantD := 0
			for _, k := range del {
				if loopIdx.Delete(k) {
					wantD++
				}
			}
			if gotD != wantD {
				t.Fatalf("%s: DeleteBatch = %d, loop = %d", name, gotD, wantD)
			}
			assertSameContents(t, name+"/delete", batchIdx, loopIdx)
		}
	}
}

func TestMergeEqualsLoop(t *testing.T) {
	base := datasets.GenLongitudes(15000, 3)
	batch := datasets.GenLongitudes(40000, 4)[15000:]
	batch = append(batch, base[:500]...) // overwrites
	batch = append(batch, batch[0])      // duplicate: last occurrence wins
	pays := make([]uint64, len(batch))
	for i := range pays {
		pays[i] = uint64(i) + 7
	}
	for _, opts := range batchOptionSets() {
		mergeIdx, err := alex.Load(base, nil, opts...)
		if err != nil {
			t.Fatal(err)
		}
		loopIdx, err := alex.Load(base, nil, opts...)
		if err != nil {
			t.Fatal(err)
		}
		gotN := mergeIdx.Merge(batch, pays)
		wantN := 0
		for i := range batch {
			if loopIdx.Insert(batch[i], pays[i]) {
				wantN++
			}
		}
		if gotN != wantN {
			t.Fatalf("Merge = %d, loop = %d", gotN, wantN)
		}
		assertSameContents(t, "merge", mergeIdx, loopIdx)
	}

	// Merge into an empty index is a bulk load.
	empty := alex.New()
	keys := datasets.Sorted(datasets.GenLongitudes(5000, 5))
	if n := empty.Merge(keys, nil); n != len(keys) {
		t.Fatalf("Merge into empty = %d, want %d", n, len(keys))
	}
	if err := empty.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
}

// TestSyncBatchConcurrent exercises the SyncIndex batch methods under
// concurrent readers and a batch writer; run with -race it doubles as
// the data-race check for the one-lock-per-batch paths.
func TestSyncBatchConcurrent(t *testing.T) {
	base := datasets.GenLongitudes(20000, 6)
	s, err := alex.LoadSync(base, nil)
	if err != nil {
		t.Fatal(err)
	}
	baseSet := make(map[float64]bool, len(base))
	for _, k := range base {
		baseSet[k] = true
	}
	stream := make([]float64, 0, 40000)
	for _, k := range datasets.GenLongitudes(60000, 7)[20000:] {
		if !baseSet[k] { // the writer deletes stream keys; keep base keys visible to readers
			stream = append(stream, k)
		}
	}
	sort.Float64s(stream)

	var wg sync.WaitGroup
	stop := make(chan struct{})
	for r := 0; r < 4; r++ {
		wg.Add(1)
		go func(r int) {
			defer wg.Done()
			probe := append([]float64(nil), base[r*100:r*100+200]...)
			sort.Float64s(probe)
			for {
				select {
				case <-stop:
					return
				default:
				}
				vals, found := s.GetBatch(probe)
				for i := range probe {
					if !found[i] {
						t.Errorf("reader %d: key %v vanished", r, probe[i])
						return
					}
					_ = vals[i]
				}
				s.Len()
			}
		}(r)
	}

	const chunk = 500
	for lo := 0; lo+chunk <= len(stream); lo += chunk {
		ks := stream[lo : lo+chunk]
		ps := make([]uint64, chunk)
		switch (lo / chunk) % 3 {
		case 0:
			s.InsertBatch(ks, ps)
		case 1:
			s.Merge(ks, ps)
		default:
			s.InsertBatch(ks, ps)
			s.DeleteBatch(ks[:chunk/2])
		}
	}
	close(stop)
	wg.Wait()
	if err := s.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
}

// batchWriter is the batch write surface of the concurrent stores.
type batchWriter interface {
	InsertBatch(keys []float64, payloads []uint64) int
	DeleteBatch(keys []float64) int
	Merge(keys []float64, payloads []uint64) int
	Insert(key float64, payload uint64) bool
	Get(key float64) (uint64, bool)
	Len() int
	CheckInvariants() error
}

// TestBatchWritesRetainNothing: InsertBatch, DeleteBatch and Merge keep
// no reference to the caller's slices once they return — the server
// reuses one key/value scratch per connection for MSET/MDEL on that
// promise. After every call the slices are overwritten, and the store
// (and, for DurableIndex, the store recovered from its WAL) must still
// hold exactly what the calls wrote.
func TestBatchWritesRetainNothing(t *testing.T) {
	dir := t.TempDir()
	stores := []struct {
		name string
		open func() batchWriter
	}{
		{"Sharded", func() batchWriter { return alex.NewSharded(4, alex.WithSplitOnInsert(), alex.WithMaxKeysPerLeaf(256)) }},
		{"Sync", func() batchWriter { return alex.NewSync() }},
		{"Durable", func() batchWriter {
			return openDurable(t, dir, alex.WithFsyncPolicy(alex.FsyncInterval), alex.WithCheckpointEvery(0), alex.WithDurableShards(4))
		}},
	}
	for _, st := range stores {
		t.Run(st.name, func(t *testing.T) {
			rng := rand.New(rand.NewSource(5))
			s := st.open()
			want := map[float64]uint64{}
			check := func(step string) {
				t.Helper()
				if s.Len() != len(want) {
					t.Fatalf("%s: Len = %d, want %d", step, s.Len(), len(want))
				}
				for k, v := range want {
					if got, ok := s.Get(k); !ok || got != v {
						t.Fatalf("%s: Get(%v) = %d,%v; want %d,true", step, k, got, ok, v)
					}
				}
				if err := s.CheckInvariants(); err != nil {
					t.Fatalf("%s: %v", step, err)
				}
			}
			// scribble overwrites a batch the store was handed with keys
			// and payloads no call ever wrote.
			scribble := func(keys []float64, vals []uint64) {
				for i := range keys {
					keys[i] = 1e12 + float64(i)
				}
				for i := range vals {
					vals[i] = ^uint64(0)
				}
			}
			batch := func(n int, sorted bool) ([]float64, []uint64) {
				keys := make([]float64, n)
				vals := make([]uint64, n)
				for i := range keys {
					keys[i] = float64(rng.Intn(1 << 20))
					vals[i] = rng.Uint64() >> 1
				}
				if sorted {
					sort.Float64s(keys)
				}
				return keys, vals
			}
			upsert := func(keys []float64, vals []uint64) {
				for i, k := range keys {
					want[k] = vals[i]
				}
			}
			for round, sorted := range []bool{true, false} {
				keys, vals := batch(3000, sorted)
				upsert(keys, vals)
				s.Merge(keys, vals)
				scribble(keys, vals)
				check(fmt.Sprintf("Merge %d", round))

				keys, vals = batch(3000, sorted)
				upsert(keys, vals)
				s.InsertBatch(keys, vals)
				scribble(keys, vals)
				check(fmt.Sprintf("InsertBatch %d", round))

				del := make([]float64, 0, 1000)
				for k := range want {
					if len(del) == cap(del) {
						break
					}
					del = append(del, k)
					delete(want, k)
				}
				if sorted {
					sort.Float64s(del)
				}
				s.DeleteBatch(del)
				scribble(del, nil)
				check(fmt.Sprintf("DeleteBatch %d", round))
			}
			// Point inserts that expand and split leaves must not
			// resurrect anything from the overwritten batches either.
			for i := 0; i < 5000; i++ {
				k := float64(rng.Intn(1<<20)) + 0.5
				s.Insert(k, uint64(i))
				want[k] = uint64(i)
			}
			check("point inserts")
			if d, ok := s.(*alex.DurableIndex); ok {
				if err := d.Close(); err != nil {
					t.Fatal(err)
				}
				s = st.open()
				check("recovered")
				s.(*alex.DurableIndex).Close()
			}
		})
	}
}
