package schedfw

import (
	"kubeshare/internal/core"
	"kubeshare/internal/core/schedfw/fwk"
	"kubeshare/internal/sim"
)

// The exhaustive driver is the reference model for the parking rules: the
// scheduling cycle as it was before units were parked, re-deciding every
// pending unit in every cycle. It shares the Scheduler's watch wiring,
// snapshot, gang admission and commit path, never writes the parked set or
// the memo (which leaves those shared pieces behaving as they did then), and
// exists only here. Whatever the production driver skips, this one decides;
// the two must agree on every placement and every ScheduledTime.

// startExhaustive is Start with the exhaustive cycle.
func (s *Scheduler) startExhaustive() {
	s.startWatches()
	s.proc = s.env.Go("kubeshare-sched", func(p *sim.Proc) {
		for s.wake.wait(p) {
			s.checkEpoch()
			for s.runCycleExhaustive(p) {
			}
		}
	})
}

func (s *Scheduler) runCycleExhaustive(p *sim.Proc) bool {
	pending := s.snap.Pending()
	s.depth.Set(int64(len(pending)))
	if len(pending) == 0 {
		return false
	}
	core.SortByAge(pending)
	cycleStart := s.env.Now()
	p.Sleep(core.CycleLatency)
	txn := fwk.NewTxn(s.snap.Pool(s.newGPUID))

	var out []staged
	progressed := s.stageExhaustive(pending, txn, &out)
	if len(s.parked) != 0 || len(s.failed) != 0 {
		panic("exhaustive driver parked a unit")
	}

	s.recordBatch(len(pending), len(out), txn.Len(), cycleStart)
	txn.Rollback(0)
	for _, st := range out {
		s.commit(st, cycleStart)
	}
	if progressed == 0 {
		s.noCapacity.Inc()
		return false
	}
	return true
}

func (s *Scheduler) stageExhaustive(pending []*core.SharePod, txn *fwk.Txn, out *[]staged) int {
	progressed := 0
	seenGang := map[string]bool{}
	for _, cand := range pending {
		if progressed >= s.batchSize {
			break
		}
		sp, err := core.SharePods(s.srv).Get(cand.Name)
		if err != nil || sp.Placed() || sp.Terminated() {
			continue
		}
		if g := gangOf(sp); g != "" {
			if seenGang[g] {
				continue
			}
			seenGang[g] = true
			n, _ := s.scheduleGang(g, pending, txn, out)
			progressed += n
			continue
		}
		dec := s.decide(core.RequestOf(sp), txn)
		switch dec.Outcome {
		case core.Assigned, core.NewDevice, core.Rejected:
			*out = append(*out, staged{name: sp.Name, created: sp.CreationTime, dec: dec})
			progressed++
		default:
			if txn.Len() > 0 {
				s.conflicts.Inc()
			}
		}
	}
	return progressed
}
