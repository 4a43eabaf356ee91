package apiserver

import (
	"fmt"
	"time"

	"kubeshare/internal/kube/store"
	"kubeshare/internal/obs"
	"kubeshare/internal/sim"
)

// DefaultCheckpointInterval is how often the periodic checkpointer
// serializes the store when EnableDurability is not told otherwise.
const DefaultCheckpointInterval = 30 * time.Second

// DurabilityConfig configures the apiserver's durable-state layer.
type DurabilityConfig struct {
	// CheckpointInterval is the periodic checkpointer's cadence. Zero takes
	// DefaultCheckpointInterval; negative disables periodic checkpoints,
	// leaving only the enable-time checkpoint plus the ever-growing WAL
	// (the degenerate point of the fig17 sweep).
	CheckpointInterval time.Duration
}

// EnableDurability attaches a write-ahead log and checkpoint medium to the
// store (see store/wal.go), takes an initial checkpoint of the current
// state, and starts the periodic checkpointer daemon. After this, Restart
// can crash the server and warm-recover it at any instant. Idempotent.
func (s *Server) EnableDurability(cfg DurabilityConfig) {
	if s.store.DurabilityEnabled() {
		return
	}
	walRecords := s.rt.Counter("kubeshare_store_wal_records_total")
	checkpointNS := s.rt.Counter("kubeshare_store_checkpoint_ns")
	s.store.EnableDurability(
		func(records int) { walRecords.Add(int64(records)) },
		func(bytes int) { checkpointNS.Add(int64(bytes) * store.DurableIONSPerByte) },
	)
	interval := cfg.CheckpointInterval
	if interval == 0 {
		interval = DefaultCheckpointInterval
	}
	if interval > 0 {
		s.env.GoDaemon("apiserver-checkpointer", func(p *sim.Proc) {
			for {
				p.Sleep(interval)
				s.store.Checkpoint()
			}
		})
	}
}

// Epoch counts the server's crash/restore cycles. Reflectors compare it
// across reconnects: a changed epoch forces a relist instead of a resume,
// because in-memory watch state (and possibly torn-tail-reverted
// mutations) did not survive the restart. The relist trusts a revision the
// consumer saw only up to the lowest revision the epochs it skipped were
// restored to (store.RestoredFloor).
func (s *Server) Epoch() int64 { return s.store.Epoch() }

// TearWALTail damages the durable log's tail — the chaos hook simulating a
// crash mid-write. The next Restart must truncate the damage and recover.
func (s *Server) TearWALTail(n int) bool { return s.store.TearWALTail(n) }

// Restart simulates the apiserver process dying and recovering from its
// durable medium: every in-memory structure — objects, indexes, watch
// registrations, resumable history — is discarded and rebuilt by checkpoint
// load + WAL replay (torn tails truncated, never wedging). Watch queues
// close, so every reflector reconnects into the new epoch and relists. A
// relist hands its consumer only the diff: what the restore reverted and
// what was written before the reflector reconnected. An object the restore
// left at the revision the consumer saw gets no event.
// The restart is marked in the telemetry event log ("APIServerRestarted",
// plus "WALTornTail" when damage was cut), giving it a place in the
// deterministic event order. Requires EnableDurability; a medium that
// cannot be read back (see store.Crash) is returned as its error.
func (s *Server) Restart() (store.RestoreStats, error) {
	st, err := s.store.Crash()
	if err != nil {
		return st, err
	}
	s.restarts.Inc()
	rec := s.rt.EventSource("apiserver")
	if st.TornTail {
		rec.Event("APIServer", "control-plane", obs.EventWarning, "WALTornTail",
			"corrupt log tail truncated during restore")
	}
	rec.Event("APIServer", "control-plane", obs.EventWarning, "APIServerRestarted",
		fmt.Sprintf("epoch %d: restored rev %d (checkpoint rev %d + %d replayed records)",
			s.store.Epoch(), st.RestoredRev, st.CheckpointRev, st.Replayed))
	return st, nil
}
