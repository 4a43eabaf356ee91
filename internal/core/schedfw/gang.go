package schedfw

import (
	"fmt"
	"time"

	"kubeshare/internal/core"
	"kubeshare/internal/core/schedfw/fwk"
	"kubeshare/internal/kube/api"
	"kubeshare/internal/sim"
)

// gangState tracks one gang's admission progress across cycles.
type gangState struct {
	// firstHold is when the gang first reserved capacity it could not yet
	// commit; the hold expires gangTimeout later.
	firstHold time.Duration
	// size is the member count the hold was armed for; growth re-arms the
	// window (new members are fresh evidence the gang is still assembling).
	size int
	// expired marks a gang whose hold timed out: it still gets an
	// all-or-nothing admission attempt each cycle, but failed reservations
	// release immediately instead of blocking younger work.
	expired bool
}

// scheduleGang runs one gang's all-or-nothing admission inside the current
// cycle. All pending members are decided back-to-back against the cycle
// transaction:
//
//   - Complete gang, every member placed → all placements staged, committed
//     with the rest of the batch.
//   - Any member Rejected → the whole gang is rejected (the constraint
//     conflict is deterministic; waiting cannot fix it).
//   - Incomplete gang, or insufficient capacity → nothing commits. Within
//     the hold window the partial reservations stay on the transaction for
//     the remainder of the cycle, shielding the gang's capacity from
//     younger units; the cycle rolls its whole transaction back before it
//     commits, so nothing leaks.
//     Past the window the reservations roll back immediately.
//
// It returns the number of staged units (the gang's contribution to the
// batch budget) and whether it left reservations on the transaction that
// will not commit — a hold, during which a younger unit's NoCapacity says
// nothing about the cluster.
func (s *Scheduler) scheduleGang(gang string, pending []*core.SharePod, txn *fwk.Txn, out *[]staged) (n int, holds bool) {
	// Gather the gang's live members from the whole pending set (not just
	// the batch window), oldest first — pending is already age-sorted.
	// Parked units are solo by construction and stay so until an event of
	// their own unparks them, so they are passed over unread.
	var members []*core.SharePod
	for _, cand := range pending {
		if _, ok := s.parked[cand.Name]; ok {
			continue
		}
		if sp := s.live(cand.Name); sp != nil && gangOf(sp) == gang {
			members = append(members, sp)
		}
	}
	if len(members) == 0 {
		return 0, false
	}
	size := members[0].Spec.GangSize
	complete := len(members) >= size

	mark := txn.Checkpoint()
	type decidedUnit struct {
		sp  *core.SharePod
		u   fwk.Unit
		dec core.Decision
	}
	var decided []decidedUnit
	rejectReason := ""
	short := false
	for _, sp := range members {
		u := unitOf(sp)
		dec := s.engine.Schedule(&u, txn)
		s.decisions.Inc()
		switch dec.Outcome {
		case core.Rejected:
			rejectReason = fmt.Sprintf("gang %s: member %s unschedulable: %s", gang, sp.Name, dec.Reason)
		case core.NoCapacity:
			short = true
			if txn.Len() > int(mark) {
				s.conflicts.Inc()
			}
		default:
			decided = append(decided, decidedUnit{sp: sp, u: u, dec: dec})
			continue
		}
		break
	}

	// unwind releases the gang's reservations.
	unwind := func() {
		for i := len(decided) - 1; i >= 0; i-- {
			s.engine.Unreserve(&decided[i].u, txn, decided[i].dec)
		}
		txn.Rollback(mark)
	}

	switch {
	case rejectReason != "":
		// A member's constraints are unsatisfiable — the gang can never be
		// admitted whole, so every member is rejected with the shared reason.
		unwind()
		for _, sp := range members {
			*out = append(*out, staged{name: sp.Name, key: api.Key(sp), created: sp.CreationTime,
				dec: core.Decision{Outcome: core.Rejected, Reason: rejectReason}})
		}
		delete(s.gangs, gang)
		return len(members), false

	case complete && !short:
		// All-or-nothing satisfied: stage every member.
		for _, d := range decided {
			*out = append(*out, staged{name: d.sp.Name, key: api.Key(d.sp), created: d.sp.CreationTime, dec: d.dec})
		}
		delete(s.gangs, gang)
		s.gangAdmitted.Inc()
		return len(members), false

	default:
		// Incomplete membership or not enough capacity: hold or release.
		now := s.env.Now()
		st := s.gangs[gang]
		if st == nil {
			st = &gangState{firstHold: now, size: len(members)}
			s.gangs[gang] = st
		} else if len(members) > st.size {
			st.firstHold, st.size, st.expired = now, len(members), false
		}
		if !st.expired && now-st.firstHold >= s.gangTimeout {
			st.expired = true
			s.gangTimeouts.Inc()
		}
		if st.expired {
			unwind()
			return 0, false
		}
		// Keep the partial reservations on the transaction so younger
		// units this cycle cannot take the gang's capacity; arm a wake
		// for the hold's expiry in case no cluster event arrives first.
		s.armGangTimer(st.firstHold + s.gangTimeout)
		return 0, len(decided) > 0
	}
}

// armGangTimer schedules a wakeup at the given deadline so a held gang's
// timeout is evaluated even on an otherwise quiet cluster. A single earlier
// or equal pending timer suffices.
func (s *Scheduler) armGangTimer(deadline time.Duration) {
	if s.timerDeadline != 0 && s.timerDeadline <= deadline {
		return
	}
	s.timerDeadline = deadline
	s.timerProcs = append(s.timerProcs, s.env.Go("kubeshare-sched-gang-timer", func(p *sim.Proc) {
		if d := deadline - s.env.Now(); d > 0 {
			p.Sleep(d)
		}
		if s.timerDeadline == deadline {
			s.timerDeadline = 0
		}
		s.kick()
	}))
}
