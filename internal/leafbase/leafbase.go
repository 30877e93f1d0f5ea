// Package leafbase implements the machinery shared by ALEX's two data
// node layouts (Gapped Array, §3.3.1, and Packed Memory Array, §3.3.2):
//
//   - a key array with gaps, where every gap slot duplicates the key of
//     the closest occupied slot to its right (trailing gaps hold +Inf),
//     so the array is always non-decreasing and exponential search works
//     without consulting the bitmap;
//   - an occupancy bitmap distinguishing real elements from gaps
//     (§5.2.3);
//   - a per-node linear model with model-based inserts, lookups by
//     exponential search from the predicted position (Alg 3), and
//     model-based re-insertion during node rebuilds;
//   - gap-making by shifting toward the closest gap (Alg 1), with shift
//     accounting for the Fig 8 experiment.
//
// The concrete layouts embed Base and supply their own growth policy:
// the gapped array grows by 1/d when its density d is reached, the PMA
// doubles and additionally rebalances windows under density bounds.
package leafbase

import (
	"errors"
	"fmt"
	"math"
	"math/bits"

	"repro/internal/bitmapx"
	"repro/internal/linmodel"
	"repro/internal/search"
)

// Stats counts the work a data node performs, in units the paper reports:
// Shifts is the number of element moves caused by inserts (Fig 8),
// Expands counts node expansions, Rebalances counts PMA window
// redistributions, Retrains counts model retrainings.
type Stats struct {
	Shifts     uint64
	Expands    uint64
	Contracts  uint64
	Rebalances uint64
	Retrains   uint64
	Inserts    uint64
	Deletes    uint64
}

// Add accumulates other into s.
func (s *Stats) Add(other *Stats) {
	s.Shifts += other.Shifts
	s.Expands += other.Expands
	s.Contracts += other.Contracts
	s.Rebalances += other.Rebalances
	s.Retrains += other.Retrains
	s.Inserts += other.Inserts
	s.Deletes += other.Deletes
}

// MinModelKeys is the cold-start threshold of §3.3.3: nodes with fewer
// keys do not maintain a model and serve lookups with plain binary
// search, exactly like a B+Tree node.
const MinModelKeys = 16

// BoundedSearchMaxErr is the largest per-leaf prediction-error bound
// for which the point probes use the bounded window search instead of
// exponential bracketing. The §4 cost model prices the strategies in
// expected work per probe: the bounded path resolves a miss with e+1
// *independent* branch-free compares in a one-sided window around the
// prediction (the direct-hit compare already fixed the direction), so
// the out-of-order core runs it at full width with no mispredictable
// bracket loop and no serial load chain; exponential costs ~2*log2(err)
// probes, half of them data-dependent branches, but adapts to the
// actual per-key error. Small bounds therefore favor the fixed window,
// large bounds the adaptive bracketing; 16 (a 17-slot window, 1-2 cache
// lines) is the measured crossover on the CI container.
const BoundedSearchMaxErr = 16

// costRetrainSlack is the absolute drift allowance of the §4
// cost-model feedback: a retrain is only advised once the bound has
// grown past both this slack and twice the bound a fresh model
// achieved at the last rebuild (see RetrainAdvised), so the trigger
// measures *drift a retrain can recover*, not intrinsic model error.
const costRetrainSlack = 4 * BoundedSearchMaxErr

// boundedMax is the effective ErrBound ceiling for the bounded-search
// fast path. It is BoundedSearchMaxErr normally and -1 when bounded
// search is disabled, so the probe-time strategy pick stays a single
// integer compare with no extra enabled-flag branch.
var boundedMax = BoundedSearchMaxErr

// SetBoundedSearch toggles the error-bound-driven bounded-search fast
// path (default on). Benchmarks flip it to measure bounded vs
// exponential search on identical trees; it is not synchronized and
// must not be toggled while the index is in use.
func SetBoundedSearch(on bool) {
	if on {
		boundedMax = BoundedSearchMaxErr
	} else {
		boundedMax = -1
	}
}

// Base is the storage core of a data node. It is not safe for concurrent
// use; like the system evaluated in the paper, the index is single-writer.
type Base struct {
	Keys     []float64 // len == capacity; gaps duplicate nearest right key
	Payloads []uint64
	Occ      *bitmapx.Bitmap
	Model    linmodel.Model
	NumKeys  int
	Stats    Stats

	// capF caches float64(len(Keys)) so the hot predict path clamps the
	// model output entirely in float registers: one FMA for the model,
	// two float compares for the clamp, one conversion for the result —
	// no per-lookup int→float conversion of the capacity. Maintained by
	// Init alongside every (re)allocation of Keys.
	capF float64

	// ErrBound is an upper bound on |occupied slot - predicted slot|
	// over every stored key — the per-leaf expected-prediction-error
	// signal of the paper's §4 cost model, maintained incrementally
	// (the "modular materialisation" framing: updated in place on every
	// mutation, recomputed exactly only when a rebuild retrains the
	// model anyway). It is exact after BuildFromSorted and widens
	// monotonically between rebuilds: a gap-claim insert folds in the
	// new key's error, a shift insert re-predicts exactly the slots the
	// shift moved (an O(shift) pass riding on the O(shift) copy), a PMA
	// window redistribution folds in the window's recomputed errors,
	// and deletes leave positions — and so the bound — untouched.
	// Probes use it to pick their search
	// strategy (see Find) and the tree's cost model reads it through
	// ErrorBound/RetrainAdvised. Meaningful only while HasModel.
	ErrBound int

	// rebuildErr is ErrBound as computed by the last BuildFromSorted —
	// the error a fresh model achieves on this node's data.
	// RetrainAdvised compares the current bound against it so that only
	// drift a retrain can actually recover triggers one; a node whose
	// data is inherently hard to fit has a large rebuildErr and is left
	// to exponential search instead of futile O(n) rebuilds.
	rebuildErr int

	// sinceRebuild counts inserts since the last model rebuild;
	// RetrainAdvised uses it to amortize cost-model retrains so a leaf
	// cannot retrain on every insert.
	sinceRebuild int

	// sealed marks the node as frozen by a snapshot (see Seal). It is a
	// plain word accessed with sync/atomic functions rather than an
	// atomic.Uint32 so Base stays trivially copyable (CloneInto and the
	// COW rebuilds assign whole Base values); the flag is only ever
	// written under the index's writer exclusion, the atomics exist so
	// the store in Seal and the load in Sealed are data-race-free when
	// snapshot creation overlaps lock-free readers. The annotation
	// below makes alexvet enforce atomic-only access mechanically.
	//alex:atomic
	sealed uint32

	// HasModel sits last so the bool packs into sealed's word instead
	// of costing a padded slot of its own (fieldalign: 184 -> 176).
	HasModel bool
}

// Init sets up an empty node with the given capacity.
func (b *Base) Init(capacity int) {
	if capacity < 1 {
		capacity = 1
	}
	b.Keys = make([]float64, capacity)
	for i := range b.Keys {
		b.Keys[i] = math.Inf(1)
	}
	b.Payloads = make([]uint64, capacity)
	b.Occ = bitmapx.New(capacity)
	b.Model = linmodel.Model{}
	b.HasModel = false
	b.NumKeys = 0
	b.capF = float64(capacity)
	b.ErrBound = 0
	b.rebuildErr = 0
	b.sinceRebuild = 0
}

// Cap returns the slot capacity of the node.
func (b *Base) Cap() int { return len(b.Keys) }

// BaseStats returns the node's work counters.
func (b *Base) BaseStats() *Stats { return &b.Stats }

// Num returns the number of real elements.
func (b *Base) Num() int { return b.NumKeys }

// Density returns NumKeys / capacity.
func (b *Base) Density() float64 {
	if len(b.Keys) == 0 {
		return 0
	}
	return float64(b.NumKeys) / float64(len(b.Keys))
}

// predictFast is the hot-path slot prediction: the model's FMA clamped
// into [0, cap) without leaving float registers until the final
// conversion. Callers must ensure HasModel; the cold-start regime goes
// through predictSlot.
//
// The final integer clamp re-checks against len(Keys) even though a
// consistent node always has capF == len(Keys): optimistic readers
// (see the root package's seqlock protocol) probe nodes that may be
// mid-rebuild, where capF and Keys can be observed torn, and the read
// path must degrade to a wrong-but-in-bounds slot — whose result the
// sequence validation then discards — never to an index panic.
func (b *Base) predictFast(key float64) int {
	p := math.Floor(b.Model.Slope*key + b.Model.Intercept)
	if !(p > 0) { // negative, -0, or NaN
		return 0
	}
	i := len(b.Keys) - 1
	if p < b.capF {
		if j := int(p); j < i {
			i = j
		}
	}
	return i
}

// predictSlot returns the model's predicted slot for key, or a plain
// lower-bound position when the node is in its cold-start (model-less)
// regime.
func (b *Base) predictSlot(key float64) int {
	if !b.HasModel {
		return search.LowerBound(b.Keys, key)
	}
	return b.predictFast(key)
}

// LowerBoundSlot returns the first slot (gap or element) whose key value
// is >= key, locating it by exponential search from the model prediction.
func (b *Base) LowerBoundSlot(key float64) int {
	if !b.HasModel {
		return search.LowerBoundBranchless(b.Keys, key)
	}
	return search.ExponentialBranchless(b.Keys, key, b.predictFast(key))
}

// Find returns the occupied slot holding key, or -1.
//
// The common case pays one model FMA and one key comparison: model-based
// insertion places elements at (or next to) their predicted slots, so
// the prediction usually lands exactly on the key — or on one of the gap
// fills duplicating it, in which case the element is the next occupied
// slot. Only a miss searches, and the leaf's error bound picks the
// strategy (§4 cost model): a bound that fits the bounded window
// resolves the probe with a handful of *independent* branch-free
// compares around the prediction — no bracketing loop, no serial
// dependency chain — while a high-error leaf keeps exponential search,
// whose cost scales with log(error) rather than log(node).
//
// Bounded search is exact here even though ErrBound only covers stored
// keys: for a stored key the occupied slot s satisfies |s - pos| <=
// ErrBound, and the gap fills left of s duplicate its key, so the
// window's lower bound lands on a slot holding the key and the bitmap
// walk below reaches s. For an absent key the window result may not be
// the true lower bound, but its slot can never *equal* the key (fills
// only duplicate stored keys), so the equality check reports the miss
// exactly as the exponential path would. The direct-hit compare already
// established which side of pos the key is on, so the window is
// one-sided: e+1 slots, not 2e+1. (k < key is false for a NaN key, and
// the left window then misses.)
func (b *Base) Find(key float64) int {
	var lo int
	if b.HasModel {
		pos := b.predictFast(key)
		if k := b.Keys[pos]; k != key {
			if e := b.ErrBound; e <= boundedMax {
				if k < key {
					lo = search.LowerBoundLinear(b.Keys, key, pos+1, pos+e+1)
				} else {
					lo = search.LowerBoundLinear(b.Keys, key, pos-e, pos+1)
				}
			} else {
				lo = search.ExponentialBranchless(b.Keys, key, pos)
			}
			if lo >= len(b.Keys) || b.Keys[lo] != key {
				return -1
			}
		} else {
			if b.Occ.Test(pos) {
				return pos // direct hit at the predicted slot
			}
			lo = pos // a gap fill duplicating the key: element is to the right
		}
	} else {
		lo = search.LowerBoundBranchless(b.Keys, key)
		if lo >= len(b.Keys) || b.Keys[lo] != key {
			return -1
		}
	}
	// The unsigned compare folds occ < 0 and occ >= len(Keys) into one
	// branch. The upper bound can only trip for optimistic readers that
	// caught the bitmap and key array mid-swap (a consistent node's
	// bitmap never returns a slot past its own capacity); they must get
	// a miss, not a panic — the sequence validation discards it.
	occ := b.Occ.NextSet(lo)
	if uint(occ) >= uint(len(b.Keys)) || b.Keys[occ] != key {
		return -1
	}
	return occ
}

// Lookup returns the payload stored for key. The payload bound check
// mirrors Find's: torn probes degrade to misses, never panics.
func (b *Base) Lookup(key float64) (uint64, bool) {
	if i := b.Find(key); uint(i) < uint(len(b.Payloads)) {
		return b.Payloads[i], true
	}
	return 0, false
}

// PredictionError returns |predicted slot - actual slot| for an existing
// key (Fig 7). ok is false when the key is absent.
func (b *Base) PredictionError(key float64) (int, bool) {
	occ := b.Find(key)
	if occ < 0 {
		return 0, false
	}
	pred := b.predictSlot(key)
	if pred > occ {
		return pred - occ, true
	}
	return occ - pred, true
}

// ErrorBound returns the node's current prediction-error bound, or -1
// for a model-less (cold start) node. The tree layer reads it for the
// split/expand cost decision and the Stats error histogram.
func (b *Base) ErrorBound() int {
	if !b.HasModel {
		return -1
	}
	return b.ErrBound
}

// RetrainAdvised reports the §4 cost-model feedback signal: the node's
// error bound (expected search work ~log2(2*ErrBound) iterations) has
// drifted well past what a fresh model achieved at the last rebuild,
// and enough inserts accumulated since then that an O(n) retrain is
// amortized. Comparing against the rebuild-time bound — rather than an
// absolute threshold — means a node whose data is inherently hard to
// fit is not rebuilt futilely, while the insert-count hysteresis keeps
// any node from retraining on every insert.
func (b *Base) RetrainAdvised() bool {
	if !b.HasModel || b.ErrBound <= 2*b.rebuildErr+costRetrainSlack {
		return false
	}
	// An O(n) rebuild every >= n/16 inserts is O(16) amortized slots of
	// work per insert — cheaper than the extra log2(e) search iterations
	// every lookup pays on a drifted leaf.
	min := b.NumKeys / 16
	if min < MinModelKeys {
		min = MinModelKeys
	}
	return b.sinceRebuild >= min
}

// noteInsertErr widens the error bound after placing key at slot when
// the model predicted pred. Callers pass slots already clamped into the
// array.
func (b *Base) noteInsertErr(slot, pred int) {
	e := slot - pred
	if e < 0 {
		e = -e
	}
	if e > b.ErrBound {
		b.ErrBound = e
	}
}

// notePlacedErr widens the error bound for an element re-placed at slot
// during a window redistribution; no-op for model-less nodes.
func (b *Base) notePlacedErr(slot int, key float64) {
	if b.HasModel {
		b.noteInsertErr(slot, b.predictFast(key))
	}
}

// Update overwrites the payload of an existing key.
func (b *Base) Update(key float64, payload uint64) bool {
	if i := b.Find(key); i >= 0 {
		b.Payloads[i] = payload
		return true
	}
	return false
}

// LowerBoundOcc returns the first occupied slot whose key is >= key, or
// -1 when no such element exists. Range scans start here.
func (b *Base) LowerBoundOcc(key float64) int {
	lo := b.LowerBoundSlot(key)
	if lo >= len(b.Keys) {
		return -1
	}
	return b.Occ.NextSet(lo)
}

// ScanFrom visits elements with key >= start in ascending key order until
// visit returns false. It reports whether visiting stopped early (visit
// returned false), so multi-node scans know when to stop.
func (b *Base) ScanFrom(start float64, visit func(key float64, payload uint64) bool) bool {
	for i := b.LowerBoundOcc(start); i >= 0; i = b.Occ.NextSet(i + 1) {
		if !visit(b.Keys[i], b.Payloads[i]) {
			return true
		}
	}
	return false
}

// AppendFrom appends up to max elements with key >= start, in ascending
// key order, to the given slices and returns them. It is the
// callback-free sibling of ScanFrom: the tree's zero-allocation ScanNInto
// walks the leaf chain with it, so no per-call visitor closure escapes
// to the heap. Passing slices with spare capacity makes it allocation
// free.
func (b *Base) AppendFrom(start float64, max int, keys []float64, payloads []uint64) ([]float64, []uint64) {
	i := b.LowerBoundOcc(start)
	for ; i >= 0 && max > 0; i = b.Occ.NextSet(i + 1) {
		keys = append(keys, b.Keys[i])
		payloads = append(payloads, b.Payloads[i])
		max--
	}
	return keys, payloads
}

// NextSlot returns the first occupied slot strictly after slot, or -1.
// Pass -1 to get the first occupied slot. Iterators use it for
// callback-free traversal.
func (b *Base) NextSlot(slot int) int {
	return b.Occ.NextSet(slot + 1)
}

// At returns the key and payload stored in an occupied slot. It panics
// on a gap or out-of-range slot; callers must only pass slots obtained
// from NextSlot or LowerBoundOcc.
func (b *Base) At(slot int) (float64, uint64) {
	if !b.Occ.Test(slot) {
		panic("leafbase: At on a gap slot")
	}
	return b.Keys[slot], b.Payloads[slot]
}

// MinKey returns the smallest stored key.
func (b *Base) MinKey() (float64, bool) {
	i := b.Occ.NextSet(0)
	if i < 0 {
		return 0, false
	}
	return b.Keys[i], true
}

// MaxKey returns the largest stored key.
func (b *Base) MaxKey() (float64, bool) {
	i := b.Occ.PrevSet(len(b.Keys) - 1)
	if i < 0 {
		return 0, false
	}
	return b.Keys[i], true
}

// Collect appends the node's elements in key order to the given slices
// and returns them. Passing nil slices allocates exact-size ones.
func (b *Base) Collect(keys []float64, payloads []uint64) ([]float64, []uint64) {
	if keys == nil {
		keys = make([]float64, 0, b.NumKeys)
	}
	if payloads == nil {
		payloads = make([]uint64, 0, b.NumKeys)
	}
	for i := b.Occ.NextSet(0); i >= 0; i = b.Occ.NextSet(i + 1) {
		keys = append(keys, b.Keys[i])
		payloads = append(payloads, b.Payloads[i])
	}
	return keys, payloads
}

// InsertResult describes the outcome of a placement attempt.
type InsertResult int

const (
	// Inserted means the key was placed.
	Inserted InsertResult = iota
	// Duplicate means the key already existed; its payload was overwritten.
	Duplicate
	// NeedRoom means no slot could be found without violating the
	// caller's constraints (node full, or PMA density bound hit).
	NeedRoom
)

// PlaceModelBased implements the shared insert path of Algorithms 1-3:
// locate the valid insertion range for key by exponential search from the
// model prediction, then
//
//   - overwrite the payload if the key exists (Duplicate);
//   - if the range contains a gap, claim the gap closest to the predicted
//     position and repair gap fills;
//   - otherwise create a gap by shifting toward the closest gap
//     (maxShiftLo/maxShiftHi bound how far the shift may reach; pass
//     0 and Cap() for the gapped array's node-wide shifts).
//
// NeedRoom is returned when the node is full or the shift window contains
// no gap.
//
// The prediction and the first occupied slot at or after the lower
// bound are each computed once and serve the duplicate check, the gap
// claim and the shift alike.
func (b *Base) PlaceModelBased(key float64, payload uint64, maxShiftLo, maxShiftHi int) InsertResult {
	cap := len(b.Keys)
	// pred is the model's slot; in the cold-start regime the lower
	// bound itself stands in for it, as predictSlot does.
	var lo, pred int
	if b.HasModel {
		pred = b.predictFast(key)
		lo = search.ExponentialBranchless(b.Keys, key, pred)
	} else {
		lo = search.LowerBoundBranchless(b.Keys, key)
		pred = lo
	}
	// firstOcc is the first occupied slot at or after lo. Keys are
	// non-decreasing and gap fills duplicate the key to their right, so
	// key is stored exactly when firstOcc holds it.
	firstOcc := -1
	if lo < cap {
		firstOcc = b.Occ.NextSet(lo)
	}
	if firstOcc >= 0 && b.Keys[firstOcc] == key {
		b.Payloads[firstOcc] = payload
		return Duplicate
	}
	if b.NumKeys >= cap {
		return NeedRoom
	}

	// The valid placement range is [lo, firstOcc-1] (its key is > key).
	// A lower bound past the end — key greater than every value
	// including trailing fills, so the last slot is occupied — leaves
	// the range empty and goes to gap-making at the last slot.
	hi := cap - 1
	switch {
	case lo >= cap:
		lo = cap
		hi = lo - 1
	case firstOcc >= 0:
		hi = firstOcc - 1
	}

	if lo <= hi {
		// There is at least one gap in range; claim the one nearest the
		// model's prediction so later lookups hit directly (§3.2,
		// "model-based insertion").
		q := pred
		if q < lo {
			q = lo
		} else if q > hi {
			q = hi
		}
		b.fillRange(lo, q, key)
		b.Keys[q] = key
		b.Payloads[q] = payload
		b.Occ.Set(q)
		b.NumKeys++
		b.Stats.Inserts++
		b.sinceRebuild++
		if b.HasModel {
			// Nothing else moved: only the new key's error can widen the
			// bound, by however far the clamp pushed it off its
			// prediction.
			b.noteInsertErr(q, pred)
		}
		return Inserted
	}

	// lo is occupied (or past the end): make a gap by shifting toward the
	// closest gap within the caller's window.
	return b.insertWithShift(key, payload, lo, pred, maxShiftLo, maxShiftHi)
}

// insertWithShift creates a gap at the lower-bound position lo by shifting
// elements toward the nearest gap found within [maxShiftLo, maxShiftHi).
// pred is key's predicted slot (meaningful only while HasModel).
func (b *Base) insertWithShift(key float64, payload uint64, lo, pred, maxShiftLo, maxShiftHi int) InsertResult {
	cap := len(b.Keys)
	if maxShiftLo < 0 {
		maxShiftLo = 0
	}
	if maxShiftHi > cap {
		maxShiftHi = cap
	}
	gapL, gapR := -1, -1
	if lo-1 >= maxShiftLo {
		if g := b.Occ.PrevClear(lo - 1); g >= maxShiftLo {
			gapL = g
		}
	}
	if lo < maxShiftHi {
		if g := b.Occ.NextClear(lo); g >= 0 && g < maxShiftHi {
			gapR = g
		}
	}
	var at, runLo, runHi int
	switch {
	case gapL < 0 && gapR < 0:
		return NeedRoom
	case gapR >= 0 && (gapL < 0 || gapR-lo <= lo-gapL):
		// Shift [lo, gapR-1] right by one; insert at lo.
		copy(b.Keys[lo+1:gapR+1], b.Keys[lo:gapR])
		copy(b.Payloads[lo+1:gapR+1], b.Payloads[lo:gapR])
		b.Occ.Set(gapR)
		b.Keys[lo] = key
		b.Payloads[lo] = payload
		at, runLo, runHi = lo, lo+1, gapR
		b.Stats.Shifts += uint64(gapR - lo)
	default:
		// Shift [gapL+1, lo-1] left by one; insert at lo-1.
		copy(b.Keys[gapL:lo-1], b.Keys[gapL+1:lo])
		copy(b.Payloads[gapL:lo-1], b.Payloads[gapL+1:lo])
		b.Occ.Set(gapL)
		b.Keys[lo-1] = key
		b.Payloads[lo-1] = payload
		at, runLo, runHi = lo-1, gapL, lo-2
		b.Stats.Shifts += uint64(lo - 1 - gapL)
	}
	b.NumKeys++
	b.Stats.Inserts++
	b.sinceRebuild++
	if b.HasModel {
		// The new key's error, plus exact re-predictions of the shifted
		// run: same O(shift) as the copy above, and far tighter than the
		// sound-but-useless alternative of bumping the bound by one per
		// shifting insert, which would disqualify every leaf from
		// bounded search within a few thousand inserts of a rebuild.
		// Elements outside the run did not move, so the old bound still
		// covers them.
		b.noteInsertErr(at, pred)
		b.noteRunErr(runLo, runHi)
	}
	return Inserted
}

// noteRunErr folds the exact prediction errors of the slots in [lo, hi]
// into the bound; callers pass the slot range a shift just re-placed.
// Every slot in it is occupied: the shift's gap was the nearest clear
// slot (NextClear/PrevClear), so the run between it and the insert
// position held elements only, and the shift filled the gap.
func (b *Base) noteRunErr(lo, hi int) {
	for i := lo; i <= hi; i++ {
		b.noteInsertErr(i, b.predictFast(b.Keys[i]))
	}
}

// fillRange rewrites the gap fills in [from, to) to value, maintaining the
// "gap duplicates closest right key" invariant after a placement at 'to'.
func (b *Base) fillRange(from, to int, value float64) {
	for i := from; i < to; i++ {
		b.Keys[i] = value
	}
}

// Delete removes key, repairs the gap fills of the run ending at its
// slot, and returns whether the key was present.
func (b *Base) Delete(key float64) bool {
	occ := b.Find(key)
	if occ < 0 {
		return false
	}
	b.Occ.Clear(occ)
	b.NumKeys--
	b.Stats.Deletes++
	// The slot and any gaps immediately to its left must now duplicate
	// the next occupied key to the right (or +Inf at the tail).
	fill := math.Inf(1)
	if n := b.Occ.NextSet(occ + 1); n >= 0 {
		fill = b.Keys[n]
	}
	for i := occ; i >= 0 && !b.Occ.Test(i); i-- {
		b.Keys[i] = fill
	}
	return true
}

// RebuildModelBased rebuilds the node into a fresh array of newCapacity
// slots: it retrains the linear model on the current elements, scales it
// to the new capacity (Alg 3), and re-inserts every element at its
// predicted position in sorted order, falling forward to the next free
// slot on collision. Nodes below the cold-start threshold are spread
// uniformly instead and keep no model.
func (b *Base) RebuildModelBased(newCapacity int) {
	// Init allocates fresh arrays, so the old ones stay intact as the
	// source of the rebuild.
	old := Base{Keys: b.Keys, Payloads: b.Payloads, Occ: b.Occ, NumKeys: b.NumKeys}
	b.BuildFrom(&old, newCapacity)
}

// BuildFromSorted initializes the node from sorted unique keys with the
// given capacity, using model-based placement. It is used at bulk load,
// after expansions, and when splitting distributes keys to new leaves.
func (b *Base) BuildFromSorted(keys []float64, payloads []uint64, capacity int) {
	n := len(keys)
	if capacity < n {
		capacity = n
	}
	if capacity < 1 {
		capacity = 1
	}
	b.Init(capacity)
	if n == 0 {
		return
	}
	b.NumKeys = n
	b.Stats.Retrains++

	if n >= MinModelKeys {
		b.Model = linmodel.Train(keys).Scale(float64(capacity) / float64(n))
		b.HasModel = true
	} else {
		b.Model = linmodel.Model{}
		b.HasModel = false
	}

	last := -1
	for i := 0; i < n; i++ {
		var pos, pred int
		if b.HasModel {
			pos = b.Model.PredictClamped(keys[i], capacity)
			pred = pos
		} else {
			// Cold start: spread uniformly like a PMA rebalance.
			pos = i * capacity / n
		}
		if pos <= last {
			pos = last + 1
		}
		// Never let the remaining elements run out of slots.
		if maxPos := capacity - (n - i); pos > maxPos {
			pos = maxPos
		}
		b.Keys[pos] = keys[i]
		b.Payloads[pos] = payloads[i]
		b.Occ.Set(pos)
		if b.HasModel {
			// The rebuild is where the bound is exact, for free: the
			// prediction and the final slot are both in hand, so the max
			// over the placement loop is the true maximum error.
			b.noteInsertErr(pos, pred)
		}
		last = pos
	}
	b.repairAllFills()
	b.rebuildErr = b.ErrBound
}

// BuildFrom is BuildFromSorted over src's elements, read straight from
// src's occupied slots: an expansion or retrain rebuilds a node without
// first collecting its elements into temporary arrays. src must not be
// b; it is only read. The result — slots, model bits, ErrBound — is
// exactly BuildFromSorted's on src.Collect(): the two loops are kept
// apart so the bulk-load loop keeps its dense indexing, and
// TestBuildFromMatchesCollect holds them together.
func (b *Base) BuildFrom(src *Base, capacity int) {
	n := src.NumKeys
	if capacity < n {
		capacity = n
	}
	if capacity < 1 {
		capacity = 1
	}
	b.Init(capacity)
	if n == 0 {
		return
	}
	b.NumKeys = n
	b.Stats.Retrains++

	if n >= MinModelKeys {
		b.Model = trainOccupied(src.Keys, src.Occ, n).Scale(float64(capacity) / float64(n))
		b.HasModel = true
	}

	last, i := -1, 0
	for w, word := range src.Occ.Words() {
		for ; word != 0; word &= word - 1 {
			j := w<<6 + bits.TrailingZeros64(word)
			var pos, pred int
			if b.HasModel {
				pos = b.Model.PredictClamped(src.Keys[j], capacity)
				pred = pos
			} else {
				pos = i * capacity / n
			}
			if pos <= last {
				pos = last + 1
			}
			if maxPos := capacity - (n - i); pos > maxPos {
				pos = maxPos
			}
			b.Keys[pos] = src.Keys[j]
			b.Payloads[pos] = src.Payloads[j]
			b.Occ.Set(pos)
			if b.HasModel {
				b.noteInsertErr(pos, pred)
			}
			last = pos
			i++
		}
	}
	b.repairAllFills()
	b.rebuildErr = b.ErrBound
}

// trainOccupied is linmodel.Train over the n keys in the occupied slots
// of occ, in slot order. It runs TrainRange's two passes and sums in
// the same order, so the model is bit-identical to Train on the keys
// Collect returns; TestBuildFromMatchesCollect holds the two together.
// n is at least 2.
func trainOccupied(keys []float64, occ *bitmapx.Bitmap, n int) linmodel.Model {
	var meanX, meanY float64
	r := 0
	for w, word := range occ.Words() {
		for ; word != 0; word &= word - 1 {
			meanX += keys[w<<6+bits.TrailingZeros64(word)]
			meanY += float64(r)
			r++
		}
	}
	fn := float64(n)
	meanX /= fn
	meanY /= fn
	var cov, varX float64
	r = 0
	for w, word := range occ.Words() {
		for ; word != 0; word &= word - 1 {
			dx := keys[w<<6+bits.TrailingZeros64(word)] - meanX
			cov += dx * (float64(r) - meanY)
			varX += dx * dx
			r++
		}
	}
	if varX == 0 {
		return linmodel.Model{Slope: 0, Intercept: meanY}
	}
	slope := cov / varX
	return linmodel.Model{Slope: slope, Intercept: meanY - slope*meanX}
}

// RedistributeUniform places the node's elements uniformly spaced across
// [winLo, winHi) — the PMA window rebalance. Elements outside the window
// are untouched. extraKey/extraPayload, when insertExtra is true, are
// merged into the redistribution (this is how a PMA insert that triggers
// a rebalance places its new element). Returns the number of element
// moves performed.
func (b *Base) RedistributeUniform(winLo, winHi int, insertExtra bool, extraKey float64, extraPayload uint64) int {
	keys := make([]float64, 0, winHi-winLo+1)
	payloads := make([]uint64, 0, winHi-winLo+1)
	for i := b.Occ.NextSet(winLo); i >= 0 && i < winHi; i = b.Occ.NextSet(i + 1) {
		keys = append(keys, b.Keys[i])
		payloads = append(payloads, b.Payloads[i])
		b.Occ.Clear(i)
	}
	if insertExtra {
		at := search.LowerBound(keys, extraKey)
		keys = append(keys, 0)
		payloads = append(payloads, 0)
		copy(keys[at+1:], keys[at:])
		copy(payloads[at+1:], payloads[at:])
		keys[at] = extraKey
		payloads[at] = extraPayload
		b.NumKeys++
		b.Stats.Inserts++
		b.sinceRebuild++
	}
	return b.finishRedistribute(winLo, winHi, keys, payloads)
}

// RedistributeWeighted is RedistributeUniform with per-segment gap
// weighting — the primitive behind the *adaptive* PMA of Bender & Hu
// that §7 proposes against sequential-insert pathologies. The window
// [winLo, winHi) is divided into segments of segSize slots; segment s
// receives a share of the window's gaps proportional to weights[s]
// (weights index is relative to the window). Hot segments (recent
// insertion targets) should get larger weights so subsequent inserts
// find local gaps. Elements keep their global sort order; within a
// segment they are spread uniformly. Returns the number of moves.
func (b *Base) RedistributeWeighted(winLo, winHi, segSize int, weights []float64, insertExtra bool, extraKey float64, extraPayload uint64) int {
	keys := make([]float64, 0, winHi-winLo+1)
	payloads := make([]uint64, 0, winHi-winLo+1)
	for i := b.Occ.NextSet(winLo); i >= 0 && i < winHi; i = b.Occ.NextSet(i + 1) {
		keys = append(keys, b.Keys[i])
		payloads = append(payloads, b.Payloads[i])
		b.Occ.Clear(i)
	}
	if insertExtra {
		at := search.LowerBound(keys, extraKey)
		keys = append(keys, 0)
		payloads = append(payloads, 0)
		copy(keys[at+1:], keys[at:])
		copy(payloads[at+1:], payloads[at:])
		keys[at] = extraKey
		payloads[at] = extraPayload
		b.NumKeys++
		b.Stats.Inserts++
		b.sinceRebuild++
	}
	m := len(keys)
	w := winHi - winLo
	numSegs := (w + segSize - 1) / segSize
	if numSegs < 1 || m > w {
		// Degenerate; fall back to uniform spacing.
		return b.finishRedistribute(winLo, winHi, keys, payloads)
	}
	// Gap budget per segment ∝ weight; element count = segSize - gaps.
	totalGaps := w - m
	var sumW float64
	for s := 0; s < numSegs; s++ {
		if s < len(weights) && weights[s] > 0 {
			sumW += weights[s]
		} else {
			sumW += 1
		}
	}
	perSeg := make([]int, numSegs)
	assigned := 0
	for s := 0; s < numSegs; s++ {
		wt := 1.0
		if s < len(weights) && weights[s] > 0 {
			wt = weights[s]
		}
		segLen := segSize
		if winLo+(s+1)*segSize > winHi {
			segLen = winHi - winLo - s*segSize
		}
		gaps := int(float64(totalGaps) * wt / sumW)
		if gaps > segLen {
			gaps = segLen
		}
		perSeg[s] = segLen - gaps
		assigned += perSeg[s]
	}
	// Fix rounding so exactly m elements are placed: trim or grow from
	// the left, respecting segment capacities.
	for s := 0; assigned > m && s < numSegs; s++ {
		take := assigned - m
		if take > perSeg[s] {
			take = perSeg[s]
		}
		perSeg[s] -= take
		assigned -= take
	}
	for s := 0; assigned < m && s < numSegs; s++ {
		segLen := segSize
		if winLo+(s+1)*segSize > winHi {
			segLen = winHi - winLo - s*segSize
		}
		room := segLen - perSeg[s]
		add := m - assigned
		if add > room {
			add = room
		}
		perSeg[s] += add
		assigned += add
	}
	if assigned != m {
		return b.finishRedistribute(winLo, winHi, keys, payloads)
	}
	// Place each segment's contiguous run uniformly within the segment.
	idx := 0
	for s := 0; s < numSegs; s++ {
		segLo := winLo + s*segSize
		segLen := segSize
		if segLo+segLen > winHi {
			segLen = winHi - segLo
		}
		cnt := perSeg[s]
		for j := 0; j < cnt; j++ {
			pos := segLo + j*segLen/cnt
			b.Keys[pos] = keys[idx]
			b.Payloads[pos] = payloads[idx]
			b.Occ.Set(pos)
			b.notePlacedErr(pos, keys[idx])
			idx++
		}
	}
	b.repairFillsWindow(winLo, winHi)
	b.Stats.Shifts += uint64(m)
	return m
}

// finishRedistribute places already-collected elements uniformly — the
// shared tail of the uniform path and the weighted path's fallback.
// Re-placed elements fold their fresh prediction errors into the
// bound; elements outside the window did not move, so the old bound
// still covers them and the max with the window's errors stays a true
// upper bound.
func (b *Base) finishRedistribute(winLo, winHi int, keys []float64, payloads []uint64) int {
	m := len(keys)
	w := winHi - winLo
	for i := 0; i < m; i++ {
		pos := winLo + i*w/m
		b.Keys[pos] = keys[i]
		b.Payloads[pos] = payloads[i]
		b.Occ.Set(pos)
		b.notePlacedErr(pos, keys[i])
	}
	b.repairFillsWindow(winLo, winHi)
	b.Stats.Shifts += uint64(m)
	return m
}

// repairAllFills rewrites every gap to duplicate its closest right key.
func (b *Base) repairAllFills() {
	b.repairFillsWindow(0, len(b.Keys))
}

// repairFillsWindow rewrites gap fills in [winLo, winHi). The carry value
// for gaps at the window's right edge is taken from the first occupied
// slot at or after winHi.
func (b *Base) repairFillsWindow(winLo, winHi int) {
	fill := math.Inf(1)
	if n := b.Occ.NextSet(winHi); n >= 0 {
		fill = b.Keys[n]
	}
	for i := winHi - 1; i >= winLo; i-- {
		if b.Occ.Test(i) {
			fill = b.Keys[i]
		} else {
			b.Keys[i] = fill
		}
	}
}

// DataSizeBytes accounts the node's data storage per §5.1: the allocated
// key and payload arrays including gaps, plus the bitmap.
func (b *Base) DataSizeBytes(payloadBytes int) int {
	return len(b.Keys)*8 + len(b.Payloads)*payloadBytes + b.Occ.SizeBytes()
}

// ErrInvariant is wrapped by all CheckInvariants failures.
var ErrInvariant = errors.New("leafbase: invariant violated")

// CheckInvariants verifies the structural invariants of the node:
// the bitmap count matches NumKeys, the full key array (fills included)
// is non-decreasing, occupied keys are strictly increasing and finite,
// every gap duplicates its closest right key (or +Inf at the tail), and
// — on modeled nodes — ErrBound is a true upper bound on every stored
// key's prediction error (verified by exhaustive re-prediction, so any
// test that checks invariants after a mutation sequence also audits the
// incrementally-maintained bound).
func (b *Base) CheckInvariants() error {
	if b.Occ.Count() != b.NumKeys {
		return fmt.Errorf("%w: bitmap count %d != NumKeys %d", ErrInvariant, b.Occ.Count(), b.NumKeys)
	}
	if b.Occ.Len() != len(b.Keys) || len(b.Keys) != len(b.Payloads) {
		return fmt.Errorf("%w: capacity mismatch keys=%d payloads=%d bitmap=%d",
			ErrInvariant, len(b.Keys), len(b.Payloads), b.Occ.Len())
	}
	prev := math.Inf(-1)
	prevOcc := math.Inf(-1)
	for i, k := range b.Keys {
		if k < prev {
			return fmt.Errorf("%w: keys[%d]=%v < keys[%d]=%v", ErrInvariant, i, k, i-1, prev)
		}
		prev = k
		if b.Occ.Test(i) {
			if math.IsInf(k, 0) || math.IsNaN(k) {
				return fmt.Errorf("%w: occupied slot %d holds non-finite key %v", ErrInvariant, i, k)
			}
			if k <= prevOcc {
				return fmt.Errorf("%w: duplicate/unordered occupied key %v at %d", ErrInvariant, k, i)
			}
			prevOcc = k
			if b.HasModel {
				pred := b.predictFast(k)
				if e := i - pred; e > b.ErrBound || -e > b.ErrBound {
					return fmt.Errorf("%w: key %v at slot %d predicted at %d: error %d exceeds ErrBound %d",
						ErrInvariant, k, i, pred, e, b.ErrBound)
				}
			}
		} else {
			want := math.Inf(1)
			if n := b.Occ.NextSet(i); n >= 0 {
				want = b.Keys[n]
			}
			if k != want {
				return fmt.Errorf("%w: gap fill at %d is %v, want %v", ErrInvariant, i, k, want)
			}
		}
	}
	return nil
}
