package fwk

import (
	"maps"

	"kubeshare/internal/core"
)

// Txn is the transactional view of one scheduling cycle's pool. The driver
// commits decisions only through it; every mutation is journaled, so the
// driver can checkpoint before a gang's first member and roll the whole
// group back when a later member fails — the all-or-nothing reserve.
//
// The journal is an undo log, not a copy of the pool: rollback restores
// exactly the devices touched since the checkpoint (saved-value restore for
// placements, removal for created devices), so a batch over thousands of
// devices pays only for what it reserved. A placement journals the device's
// value inline, copying only label sets the device has, so placing on and
// rolling back an unlabeled device allocates nothing once the journal has
// grown.
type Txn struct {
	pool    *core.Pool
	journal []txnOp
}

// Mark is a checkpoint into the transaction journal.
type Mark int

type txnOpKind int

const (
	opPlace txnOpKind = iota
	opAddDevice
)

type txnOp struct {
	kind txnOpKind
	dev  *core.DeviceState
	// saved is the device's pre-mutation value (opPlace), its label sets
	// copies of the device's.
	saved core.DeviceState
	// node regains its free physical GPU on rollback (opAddDevice).
	node string
}

// NewTxn wraps a cycle's pool. The driver's is on loan from the snapshot:
// Rollback(0) hands it back exactly as it was borrowed.
func NewTxn(pool *core.Pool) *Txn { return &Txn{pool: pool} }

// Reset points the transaction at another cycle's pool with an empty
// journal, keeping the journal's storage: a driver that resets one Txn per
// cycle journals without allocating once the journal has grown. Mutations
// still journaled are dropped, not undone; the driver rolls back first.
func (t *Txn) Reset(pool *core.Pool) {
	clear(t.journal)
	t.pool, t.journal = pool, t.journal[:0]
}

// Checkpoint marks the current journal position for a later Rollback.
func (t *Txn) Checkpoint() Mark { return Mark(len(t.journal)) }

// Place commits a request onto an existing device, journaling the device's
// prior value.
func (t *Txn) Place(d *core.DeviceState, r core.Request) {
	saved := *d
	saved.Aff, saved.Anti = maps.Clone(d.Aff), maps.Clone(d.Anti)
	t.journal = append(t.journal, txnOp{kind: opPlace, dev: d, saved: saved})
	t.pool.Place(d, r)
}

// AddDevice creates a fresh vGPU on node (consuming one free physical GPU)
// and places the request on it — the commit of a NewDevice decision.
func (t *Txn) AddDevice(node, id string, r core.Request) {
	d := t.pool.AddDevice(node, id, r)
	t.journal = append(t.journal, txnOp{kind: opAddDevice, dev: d, node: node})
}

// Schedule is core.Schedule on the transaction: Algorithm 1's decision for
// r, an Assigned or NewDevice one committed through Place or AddDevice.
func (t *Txn) Schedule(r core.Request) core.Decision {
	dec, d := core.Decide(r, t.pool)
	switch dec.Outcome {
	case core.Assigned:
		t.Place(d, r)
	case core.NewDevice:
		t.AddDevice(dec.NodeName, dec.GPUID, r)
	}
	return dec
}

// Rollback undoes every mutation after the mark, newest first. Created
// devices pop off the pool tail in reverse creation order (placements on
// other devices do not reorder the slice, so each popped entry is exactly
// the journaled device).
func (t *Txn) Rollback(m Mark) {
	for i := len(t.journal) - 1; i >= int(m); i-- {
		op := &t.journal[i]
		switch op.kind {
		case opPlace:
			t.pool.Restore(op.dev, &op.saved)
		case opAddDevice:
			t.pool.Remove(len(t.pool.Devices) - 1)
			t.pool.FreePhysical[op.node]++
		}
	}
	// Cleared, so the journal's storage pins no device or label set.
	clear(t.journal[m:])
	t.journal = t.journal[:m]
}

// Len reports the number of journaled mutations (for tests and stats).
func (t *Txn) Len() int { return len(t.journal) }
