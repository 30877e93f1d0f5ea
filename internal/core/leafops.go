package core

import (
	"repro/internal/gapped"
	"repro/internal/pma"
)

// This file is the writer-side dispatch between the tree and the leaf
// layouts' copy-on-write operation variants. Every mutation of a
// published leaf goes through one of the leafXxx helpers, which:
//
//  1. obtain a writable array — cloning it first if a snapshot sealed
//     the current one (freeze-on-snapshot, clone-on-first-write);
//  2. run the layout's COW variant, which mutates in place when the
//     operation is value-only and otherwise builds a replacement;
//  3. publish any replacement with a single atomic store and retire
//     the superseded array for epoch-based reclamation.
//
// Lock-free readers that loaded the old array keep probing it — it is
// never mutated again once unpublished (sealed case) or only ever
// value-mutated (live case, discarded by seqlock validation) — so no
// reader can fault, and pinned snapshots keep their sealed arrays
// byte-stable forever.

// writableGA returns g, the leaf's gapped array as loaded from n.ga,
// ready for mutation: when a snapshot sealed it, it is cloned and the
// clone republished first. Returns nil when g is nil (the leaf is
// PMA-backed).
func (t *Tree) writableGA(n *node, g *gapped.Array) *gapped.Array {
	if g == nil || !g.Sealed() {
		return g
	}
	c := g.CloneForWrite()
	n.ga.Store(c)
	t.retireObj(g)
	return c
}

// writablePA is writableGA for the PMA layout.
func (t *Tree) writablePA(n *node, p *pma.Array) *pma.Array {
	if p == nil || !p.Sealed() {
		return p
	}
	c := p.CloneForWrite()
	n.pa.Store(c)
	t.retireObj(p)
	return c
}

// leafInsert inserts into leaf n, whose current array the caller
// loaded as d, and returns the array that is current afterwards (a
// clone or an expanded rebuild, when the insert published one).
func (t *Tree) leafInsert(n *node, d DataNode, key float64, payload uint64) (DataNode, bool) {
	if g, ok := d.(*gapped.Array); ok {
		g = t.writableGA(n, g)
		repl, added := g.InsertCOW(key, payload)
		if repl == nil {
			return g, added
		}
		n.ga.Store(repl)
		t.retireObj(g)
		return repl, added
	}
	p := t.writablePA(n, d.(*pma.Array))
	repl, added := p.InsertCOW(key, payload)
	if repl == nil {
		return p, added
	}
	n.pa.Store(repl)
	t.retireObj(p)
	return repl, added
}

func (t *Tree) leafDelete(n *node, key float64) bool {
	if g := t.writableGA(n, n.ga.Load()); g != nil {
		repl, ok := g.DeleteCOW(key)
		if repl != nil {
			n.ga.Store(repl)
			t.retireObj(g)
		}
		return ok
	}
	p := t.writablePA(n, n.pa.Load())
	repl, ok := p.DeleteCOW(key)
	if repl != nil {
		n.pa.Store(repl)
		t.retireObj(p)
	}
	return ok
}

// leafUpdate overwrites a payload in place. The write itself is
// value-only, but a sealed array must still be cloned first — snapshot
// readers own its exact contents.
func (t *Tree) leafUpdate(n *node, key float64, payload uint64) bool {
	if g := t.writableGA(n, n.ga.Load()); g != nil {
		return g.Update(key, payload)
	}
	return t.writablePA(n, n.pa.Load()).Update(key, payload)
}

func (t *Tree) leafRetrain(n *node) {
	if g := n.ga.Load(); g != nil {
		repl := g.RetrainCOW()
		n.ga.Store(repl)
		t.retireObj(g)
		return
	}
	p := n.pa.Load()
	repl := p.RetrainCOW()
	n.pa.Store(repl)
	t.retireObj(p)
}

func (t *Tree) leafInsertSortedBatch(n *node, keys []float64, payloads []uint64) int {
	if g := t.writableGA(n, n.ga.Load()); g != nil {
		repl, added := g.InsertSortedBatchCOW(keys, payloads)
		if repl != nil {
			n.ga.Store(repl)
			t.retireObj(g)
		}
		return added
	}
	p := t.writablePA(n, n.pa.Load())
	repl, added := p.InsertSortedBatchCOW(keys, payloads)
	if repl != nil {
		n.pa.Store(repl)
		t.retireObj(p)
	}
	return added
}

func (t *Tree) leafDeleteSortedBatch(n *node, keys []float64) int {
	if g := t.writableGA(n, n.ga.Load()); g != nil {
		repl, deleted := g.DeleteSortedBatchCOW(keys)
		if repl != nil {
			n.ga.Store(repl)
			t.retireObj(g)
		}
		return deleted
	}
	p := t.writablePA(n, n.pa.Load())
	repl, deleted := p.DeleteSortedBatchCOW(keys)
	if repl != nil {
		n.pa.Store(repl)
		t.retireObj(p)
	}
	return deleted
}

func (t *Tree) leafMergeSorted(n *node, keys []float64, payloads []uint64) int {
	if g := n.ga.Load(); g != nil {
		repl, added := g.MergeSortedCOW(keys, payloads)
		n.ga.Store(repl)
		t.retireObj(g)
		return added
	}
	p := n.pa.Load()
	repl, added := p.MergeSortedCOW(keys, payloads)
	n.pa.Store(repl)
	t.retireObj(p)
	return added
}
