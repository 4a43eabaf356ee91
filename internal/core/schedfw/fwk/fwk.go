// Package fwk defines the scheduling framework's extension surface: the
// Unit of work flowing through a scheduling cycle, the phase plugin
// interfaces (pre-filter → filter → score → allocate → reserve), and the
// transactional pool view plugins mutate device state through.
//
// The package depends only on internal/core's pure scheduling types
// (Request, DeviceState, Pool, Decision). Plugins see cluster state
// exclusively through the pool and transaction handed to them and never
// talk to the API server — commits happen in bulk through the framework
// driver after intra-batch conflicts are resolved, a rule tools/detvet
// enforces on plugin packages (no apiserver/store imports).
//
// # The plugin contract
//
// The driver does not re-run the pipeline for a unit it already knows
// cannot be placed (it parks the unit until capacity is released, and
// within a cycle skips later units carrying an identical request). That
// is sound only for plugins that keep two promises:
//
//   - Pure: a plugin's verdict is a function of (u.Req, pool) alone — not
//     of the unit's Name or Created, of the clock, or of state the plugin
//     keeps outside the pool. Two units with equal Req get equal verdicts
//     against equal pools.
//   - Capacity-monotone: reserving more onto a pool — the Txn.Place and
//     Txn.AddDevice calls the reserve phase makes for units this same
//     pipeline admitted — never turns a NoCapacity verdict into a
//     placement. Only a release may: a tenant leaving, a device or node
//     appearing. (A tenant bound past the pipeline, by a user-chosen
//     GPUID, is no such reservation; the driver counts it as a release.)
//
// The contract speaks of identical requests, not of ordered ones: a
// plugin may well admit a larger request where a smaller one fails (a
// headroom filter that waves big jobs through does exactly that), so the
// driver never reasons "a smaller one failed, this one will too".
//
// # Candidates
//
// A pre-filter may name the devices worth looking at instead of letting the
// engine walk the pool. The set must be a superset of what the same plugin's
// own Filter passes: it may leave out only devices that Filter rejects for
// this unit. Any one plugin's set is therefore sound alone — every filter and
// scorer still runs on every candidate, so a left-out device is one the
// pipeline would have dropped anyway — and the engine takes the shortest set
// offered without intersecting them; with none offered it walks every device.
// A set's order means nothing: scores compare lexicographically and a full
// tie falls to the lowest device ID, in whatever order candidates arrive.
//
// Plugins receive the unit by pointer to keep a 120-byte struct out of
// every per-device call; they must neither retain nor mutate it.
package fwk

import (
	"time"

	"kubeshare/internal/core"
)

// Unit is one schedulable work item — a pending sharePod's scheduling view.
type Unit struct {
	// Name identifies the sharePod the unit places.
	Name string
	// Created orders units for FIFO fairness (oldest first).
	Created time.Duration
	// Req is the unit's Algorithm 1 request.
	Req core.Request
	// Gang and GangSize carry the unit's all-or-nothing co-scheduling
	// group; Gang == "" for solo units.
	Gang     string
	GangSize int
}

// Plugin is the common surface every phase plugin implements.
type Plugin interface {
	// Name identifies the plugin to people reading code and tests; the
	// framework itself never reads it.
	Name() string
}

// PreFilterResult steers the rest of the pipeline for one unit.
type PreFilterResult struct {
	// Reject aborts scheduling with a terminal rejection (Algorithm 1's
	// "return -1"); the string is the user-visible reason.
	Reject string
	// Pin restricts filter/score to exactly this device (the GPU-affinity
	// grouping: the group's device, or the idle device a new group opens
	// on).
	Pin *core.DeviceState
	// SkipDevices bypasses filter/score entirely and goes straight to the
	// allocate phase (no existing device may host the unit).
	SkipDevices bool
	// Candidates narrows filter/score to these pool devices; nil means every
	// device (after kube-scheduler's PreFilterResult.NodeNames). See the
	// package comment for what a plugin may leave out.
	Candidates []*core.DeviceState
}

// PreFilterPlugin runs once per unit before device enumeration. Multiple
// pre-filters compose: the first Reject wins, the last Pin wins,
// SkipDevices is sticky, and the shortest Candidates is the one walked.
type PreFilterPlugin interface {
	Plugin
	PreFilter(u *Unit, pool *core.Pool) PreFilterResult
}

// FilterPlugin votes a single device in or out for a unit.
type FilterPlugin interface {
	Plugin
	Filter(u *Unit, d *core.DeviceState) bool
}

// ScorePlugin ranks devices that survived filtering. Scores from multiple
// plugins are compared lexicographically in registration order: a strictly
// higher score from an earlier plugin dominates, later plugins only break
// its exact ties, and a full tie falls to the lowest device ID. The
// lexicographic contract is what lets a scorer express banded precedence
// (e.g. "plain devices before affinity-labelled ones") without folding
// bands into one float and losing resolution.
type ScorePlugin interface {
	Plugin
	Score(u *Unit, d *core.DeviceState) float64
}

// AllocPlugin proposes a placement when no existing device was chosen —
// typically by deciding where a fresh vGPU would be created. It must not
// mutate the pool: it returns NewDevice (with the node and a fresh GPUID
// from pool.NewID) or NoCapacity, and the reserve phase performs the
// creation transactionally.
type AllocPlugin interface {
	Plugin
	Allocate(u *Unit, pool *core.Pool) core.Decision
}

// ReservePlugin commits a decision onto the transactional pool view. It
// writes only through the Txn, so rolling the journal back (a gang that
// unwinds, a borrowed pool handed back) undoes everything it did; by the
// contract above it keeps no state outside the pool that would need undoing.
type ReservePlugin interface {
	Plugin
	Reserve(u *Unit, t *Txn, d *core.DeviceState, dec core.Decision)
}
