package leafbase

import (
	"math"
	"math/rand"
	"testing"
)

// sameNode fails unless got and want hold the same slots, keys,
// payloads, occupancy, model bits, error bounds and counters.
func sameNode(t *testing.T, what string, got, want *Base) {
	t.Helper()
	if got.Cap() != want.Cap() || got.NumKeys != want.NumKeys {
		t.Fatalf("%s: cap/num %d/%d, want %d/%d", what, got.Cap(), got.NumKeys, want.Cap(), want.NumKeys)
	}
	for i := range want.Keys {
		if math.Float64bits(got.Keys[i]) != math.Float64bits(want.Keys[i]) ||
			got.Payloads[i] != want.Payloads[i] || got.Occ.Test(i) != want.Occ.Test(i) {
			t.Fatalf("%s: slot %d holds %v/%d/%v, want %v/%d/%v", what, i,
				got.Keys[i], got.Payloads[i], got.Occ.Test(i), want.Keys[i], want.Payloads[i], want.Occ.Test(i))
		}
	}
	if math.Float64bits(got.Model.Slope) != math.Float64bits(want.Model.Slope) ||
		math.Float64bits(got.Model.Intercept) != math.Float64bits(want.Model.Intercept) ||
		got.HasModel != want.HasModel {
		t.Fatalf("%s: model %+v (%v), want %+v (%v)", what, got.Model, got.HasModel, want.Model, want.HasModel)
	}
	if got.ErrBound != want.ErrBound || got.rebuildErr != want.rebuildErr || got.sinceRebuild != want.sinceRebuild {
		t.Fatalf("%s: bound %d/%d/%d, want %d/%d/%d", what, got.ErrBound, got.rebuildErr, got.sinceRebuild,
			want.ErrBound, want.rebuildErr, want.sinceRebuild)
	}
	if got.Stats != want.Stats {
		t.Fatalf("%s: stats %+v, want %+v", what, got.Stats, want.Stats)
	}
}

// TestBuildFromMatchesCollect: rebuilding a node straight from another
// node's occupied slots (BuildFrom, and the in-place RebuildModelBased
// built on it) gives exactly what collecting the elements first and
// calling BuildFromSorted gives — the same slots, keys, payloads, model
// bits and ErrBound — across cold-start sizes, model-based sizes,
// clustered key sets that shifts have packed, and shrinking and
// growing capacities.
func TestBuildFromMatchesCollect(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	for trial := 0; trial < 300; trial++ {
		n := rng.Intn(400)
		if trial < 20 {
			n = trial // every cold-start size, and the threshold
		}
		capacity := n + 4 + rng.Intn(n+8)
		src := &Base{}
		src.Init(capacity)
		base, spread := rng.Float64()*1e6-5e5, math.Pow(10, float64(rng.Intn(12)-4))
		for src.NumKeys < n {
			k := base + spread*rng.Float64()
			if rng.Intn(3) == 0 {
				k = base + spread*0.5 + spread*1e-3*rng.Float64() // a packed cluster
			}
			if src.PlaceModelBased(k, rng.Uint64(), 0, src.Cap()) == NeedRoom {
				src.RebuildModelBased(src.Cap() + src.Cap()/4 + 1)
			}
			if src.NumKeys >= 16 && rng.Intn(50) == 0 {
				src.RebuildModelBased(src.Cap()) // train a model now and then
			}
		}
		for _, newCap := range []int{n, n + 1 + rng.Intn(2*n+2), 2*n + 7} {
			keys, payloads := src.Collect(nil, nil)
			want := &Base{Stats: src.Stats}
			want.BuildFromSorted(keys, payloads, newCap)

			got := &Base{Stats: src.Stats}
			got.BuildFrom(src, newCap)
			sameNode(t, "BuildFrom", got, want)

			inPlace := &Base{}
			src.CloneInto(inPlace)
			inPlace.RebuildModelBased(newCap)
			sameNode(t, "RebuildModelBased", inPlace, want)
		}
	}
}
