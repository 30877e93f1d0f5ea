package leafbase_test

import (
	"math/rand"
	"testing"

	"repro/internal/gapped"
	"repro/internal/leafbase"
	"repro/internal/pma"
)

// node is the slice of a data-node layout the differential test drives.
type node interface {
	Insert(key float64, payload uint64) bool
	CheckInvariants() error
}

// changedSpan returns the first and last slot whose key, payload or
// occupancy differs between before and after (same capacity), or
// lo > hi when none does.
func changedSpan(before, after *leafbase.Base) (lo, hi int) {
	lo, hi = after.Cap(), -1
	for i := range after.Keys {
		if before.Keys[i] != after.Keys[i] || before.Payloads[i] != after.Payloads[i] ||
			before.Occ.Test(i) != after.Occ.Test(i) {
			lo = min(lo, i)
			hi = i
		}
	}
	return lo, hi
}

// refBound is the bound refresh as a bitmap walk: prev widened by the
// prediction errors of the occupied slots in [lo, hi], visited with
// NextSet. An insert rewrites exactly its new slot, the run a shift
// moved and the gap fills before a claimed gap, so over the changed
// span this is the bound the insert must leave.
func refBound(b *leafbase.Base, prev, lo, hi int) int {
	for i := b.Occ.NextSet(lo); i >= 0 && i <= hi; i = b.Occ.NextSet(i + 1) {
		e := i - b.Model.PredictClamped(b.Keys[i], b.Cap())
		if e < 0 {
			e = -e
		}
		prev = max(prev, e)
	}
	return prev
}

// TestShiftBoundMatchesBitmapWalk: on both layouts, inserts clustered
// into a packed region keep shifting runs of elements; after every
// insert the incrementally refreshed ErrBound must equal the bitmap-walk
// reference over the slots the insert rewrote. Inserts that rebuild the
// node (an expansion, a PMA window redistribution) only re-anchor the
// reference, after CheckInvariants has audited the bound exhaustively.
func TestShiftBoundMatchesBitmapWalk(t *testing.T) {
	spread := make([]float64, 2000)
	payloads := make([]uint64, len(spread))
	for i := range spread {
		spread[i] = float64(i)
		payloads[i] = uint64(i)
	}
	layouts := []struct {
		name string
		new  func() (node, *leafbase.Base)
	}{
		{"gapped", func() (node, *leafbase.Base) {
			a := gapped.NewFromSorted(spread, payloads, gapped.Config{})
			return a, &a.Base
		}},
		{"pma", func() (node, *leafbase.Base) {
			a := pma.NewFromSorted(spread, payloads, pma.Config{})
			return a, &a.Base
		}},
	}
	for _, l := range layouts {
		t.Run(l.name, func(t *testing.T) {
			rng := rand.New(rand.NewSource(3))
			n, b := l.new()
			compared, shifted := 0, 0
			for i := 0; i < 6000; i++ {
				// Three narrow clusters: their keys all predict into a
				// few slots, so the region packs and inserts shift.
				k := float64(500*(1+rng.Intn(3))) + rng.Float64()*0.25
				before := &leafbase.Base{}
				b.CloneInto(before)
				stats := b.Stats
				n.Insert(k, uint64(i))
				if b.Cap() != before.Cap() || b.Stats.Retrains != stats.Retrains ||
					b.Stats.Rebalances != stats.Rebalances {
					if err := n.CheckInvariants(); err != nil {
						t.Fatalf("insert %d rebuilt the node: %v", i, err)
					}
					continue
				}
				if !b.HasModel {
					t.Fatal("node lost its model")
				}
				lo, hi := changedSpan(before, b)
				if want := refBound(b, before.ErrBound, lo, hi); b.ErrBound != want {
					t.Fatalf("insert %d of %v (span [%d,%d]): ErrBound %d, bitmap walk gives %d",
						i, k, lo, hi, b.ErrBound, want)
				}
				compared++
				if b.Stats.Shifts != stats.Shifts {
					shifted++
				}
			}
			if err := n.CheckInvariants(); err != nil {
				t.Fatal(err)
			}
			if shifted < 1000 {
				t.Fatalf("only %d of %d compared inserts shifted; the test does not exercise the shift path", shifted, compared)
			}
			t.Logf("%d inserts compared, %d of them shifted", compared, shifted)
		})
	}
}
