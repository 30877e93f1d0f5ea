package alex

// This file defines the unified apply path for mutations. Point writes,
// batch writes, and write-ahead-log replay all reduce to an Op and flow
// through one Apply method per layer (Index, SyncIndex, ShardedIndex),
// so every path shares the same locking, routing, amortization, and
// retrain decisions. DurableIndex leans on this: logging happens once
// in front of Apply, and crash recovery replays WAL records through the
// very same entry point at batch speed.

// OpKind discriminates the mutation kinds of the unified apply path.
type OpKind uint8

// Mutation kinds. OpInsert upserts (existing keys get their payloads
// overwritten), OpDelete removes, OpMerge bulk-upserts through the
// sorted-merge rebuild path — fastest for large batches.
const (
	OpInsert OpKind = iota + 1
	OpDelete
	OpMerge
)

// Op is one logical mutation: one or many keys, applied atomically with
// respect to the layer's locking. A single-key insert or delete takes
// the point fast path — the same helper Insert and Delete call, which
// builds no Op at all; multi-key Ops take the amortized batch path (see
// InsertBatch / DeleteBatch / Merge for the batch semantics).
type Op struct {
	Kind     OpKind
	Keys     []float64
	Payloads []uint64 // parallel to Keys for OpInsert/OpMerge (Merge may pass nil)
}

// point reports whether op is a single-key insert or delete — the ops
// every layer serves through its point helper instead of the batch
// path — and returns its key and payload (0 for a delete).
func (op *Op) point() (key float64, payload uint64, ok bool) {
	if len(op.Keys) != 1 {
		return 0, 0, false
	}
	switch op.Kind {
	case OpInsert:
		if len(op.Payloads) != 1 {
			return 0, 0, false
		}
		return op.Keys[0], op.Payloads[0], true
	case OpDelete:
		return op.Keys[0], 0, true
	}
	return 0, 0, false
}

// affected converts a point helper's result to Apply's affected-key
// count.
func affected(changed bool) int {
	if changed {
		return 1
	}
	return 0
}

// Apply executes op on the index and returns the affected-key count:
// newly inserted keys for OpInsert/OpMerge, removed keys for OpDelete.
// It is the single mutation entry point the wrappers and WAL replay
// share; InsertBatch/DeleteBatch/Merge are thin constructors over it,
// and its single-key arms are the point helper Insert/Delete use.
func (ix *Index) Apply(op Op) int {
	if key, payload, ok := op.point(); ok {
		return affected(ix.point(op.Kind, key, payload))
	}
	switch op.Kind {
	case OpInsert:
		return ix.t.InsertBatch(op.Keys, op.Payloads)
	case OpDelete:
		return ix.t.DeleteBatch(op.Keys)
	case OpMerge:
		return ix.t.Merge(op.Keys, op.Payloads)
	}
	panic("alex: unknown op kind")
}

// point applies one single-key mutation of kind OpInsert (upsert key
// with payload) or OpDelete (remove key; payload is ignored) and
// reports whether a key was added or removed. The wrappers' point
// helpers run it under their locks.
func (ix *Index) point(kind OpKind, key float64, payload uint64) bool {
	if kind == OpDelete {
		return ix.t.Delete(key)
	}
	return ix.t.Insert(key, payload)
}
