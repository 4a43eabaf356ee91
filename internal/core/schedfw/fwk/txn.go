package fwk

import "kubeshare/internal/core"

// Txn is the transactional view of one scheduling cycle's pool. Reserve
// plugins mutate devices only through it; every mutation is journaled, so
// the driver can checkpoint before a gang's first member and roll the whole
// group back when a later member fails — the all-or-nothing reserve.
//
// The journal is an undo log, not a copy of the pool: rollback restores
// exactly the devices touched since the checkpoint (saved-value restore for
// placements, removal for created devices), so a batch over thousands of
// devices pays only for what it reserved.
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
	// saved is the device's pre-mutation value (opPlace).
	saved *core.DeviceState
	// node regains its free physical GPU on rollback (opAddDevice).
	node string
}

// NewTxn wraps a cycle's pool. The driver's is on loan from the snapshot:
// Rollback(0) hands it back exactly as it was borrowed.
func NewTxn(pool *core.Pool) *Txn { return &Txn{pool: pool} }

// Pool exposes the pool for reading (filters, scorers, allocators).
// Mutations must go through Place / AddDevice.
func (t *Txn) Pool() *core.Pool { return t.pool }

// Checkpoint marks the current journal position for a later Rollback.
func (t *Txn) Checkpoint() Mark { return Mark(len(t.journal)) }

// Place commits a request onto an existing device, journaling the device's
// prior value.
func (t *Txn) Place(d *core.DeviceState, r core.Request) {
	t.journal = append(t.journal, txnOp{kind: opPlace, dev: d, saved: d.Clone()})
	t.pool.Place(d, r)
}

// AddDevice creates a fresh vGPU on node (consuming one free physical GPU),
// places the request on it, and appends it to the pool — the reserve half
// of a NewDevice decision.
func (t *Txn) AddDevice(node, id string, r core.Request) *core.DeviceState {
	t.pool.FreePhysical[node]--
	d := core.NewDeviceState(id, node)
	if t.pool.MemFactor > 0 {
		d.MemCapacity = t.pool.MemFactor
		d.Mem = t.pool.MemFactor
	}
	d.Place(r)
	t.pool.Insert(len(t.pool.Devices), d)
	t.journal = append(t.journal, txnOp{kind: opAddDevice, dev: d, node: node})
	return d
}

// Rollback undoes every mutation after the mark, newest first. Created
// devices pop off the pool tail in reverse creation order (placements on
// other devices do not reorder the slice, so each popped entry is exactly
// the journaled device).
func (t *Txn) Rollback(m Mark) {
	for i := len(t.journal) - 1; i >= int(m); i-- {
		op := t.journal[i]
		switch op.kind {
		case opPlace:
			t.pool.Restore(op.dev, op.saved)
		case opAddDevice:
			t.pool.Remove(len(t.pool.Devices) - 1)
			t.pool.FreePhysical[op.node]++
		}
	}
	t.journal = t.journal[:m]
}

// Len reports the number of journaled mutations (for tests and stats).
func (t *Txn) Len() int { return len(t.journal) }
