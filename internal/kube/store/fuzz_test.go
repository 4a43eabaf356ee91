package store

import (
	"bytes"
	"encoding/binary"
	"errors"
	"flag"
	"fmt"
	"hash/crc32"
	"os"
	"path/filepath"
	"runtime"
	"testing"

	"kubeshare/internal/kube/api"
	"kubeshare/internal/sim"
)

var updateCorpus = flag.Bool("update", false, "rewrite the fuzz seed corpora under testdata/fuzz from the fixtures")

// fixtureMedium builds the medium of TestCheckpointRestoreRoundTrip's store,
// widened to every test kind: a checkpoint holding one labelled object per
// kind, and behind it a log with a create, an update and a delete.
func fixtureMedium(t testing.TB) (checkpoint, wal []byte) {
	s := New(sim.NewEnv())
	s.EnableDurability(nil, nil)
	for i, kind := range testKinds {
		obj := newTestObj(kind, fmt.Sprintf("ck-%d", i), map[string]string{"app": "x", "tier": "t1"})
		if _, err := s.Create(obj); err != nil {
			t.Fatal(err)
		}
	}
	s.Checkpoint()
	if _, err := s.Create(pod("logged")); err != nil {
		t.Fatal(err)
	}
	cur, _ := edit(s, "Node", "ck-1")
	cur.GetMeta().Labels = map[string]string{"app": "y"}
	if _, err := s.Update(cur); err != nil {
		t.Fatal(err)
	}
	if err := s.Delete(api.KindEvent, "ck-2"); err != nil {
		t.Fatal(err)
	}
	return bytes.Clone(s.dur.checkpoint), bytes.Clone(s.dur.wal)
}

// fuzzSeeds are the checked-in corpora: target → seed name → input.
func fuzzSeeds(t testing.TB) map[string]map[string][]byte {
	checkpoint, wal := fixtureMedium(t)
	flipped := bytes.Clone(wal)
	flipped[len(flipped)-1] ^= 0xFF
	return map[string]map[string][]byte{
		"FuzzWALRestore": {
			"valid-log":      wal,
			"torn-truncated": wal[:len(wal)-3],
			"torn-bitflip":   flipped,
		},
		"FuzzCheckpointImage": {"checkpoint": checkpoint},
	}
}

// TestFuzzSeedCorpusCurrent keeps testdata/fuzz in step with the format: the
// checked-in seeds must be what the fixtures encode to today (a seed from an
// older format is rejected at the first byte and teaches the fuzzer nothing).
// Regenerate with `go test ./internal/kube/store -run TestFuzzSeedCorpusCurrent -update`.
func TestFuzzSeedCorpusCurrent(t *testing.T) {
	for target, seeds := range fuzzSeeds(t) {
		for name, data := range seeds {
			path := filepath.Join("testdata", "fuzz", target, name)
			want := fmt.Sprintf("go test fuzz v1\n[]byte(%q)\n", data)
			if *updateCorpus {
				if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
					t.Fatal(err)
				}
				if err := os.WriteFile(path, []byte(want), 0o644); err != nil {
					t.Fatal(err)
				}
			}
			if got, err := os.ReadFile(path); err != nil || string(got) != want {
				t.Errorf("%s is missing or stale (err %v): rerun with -update", path, err)
			}
		}
	}
}

// restoreFrom crashes a store whose medium is the given bytes and returns it
// with the restore's outcome.
func restoreFrom(checkpoint, wal []byte) (*Store, RestoreStats, error) {
	s := New(sim.NewEnv())
	s.dur = &Durable{checkpoint: bytes.Clone(checkpoint), wal: bytes.Clone(wal)}
	st, err := s.Crash()
	return s, st, err
}

// restoreMeasured is restoreFrom plus the bytes it allocated.
func restoreMeasured(checkpoint, wal []byte) (s *Store, st RestoreStats, err error, allocated uint64) {
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	s, st, err = restoreFrom(checkpoint, wal)
	runtime.ReadMemStats(&after)
	return s, st, err, after.TotalAlloc - before.TotalAlloc
}

// allocBound is what a restore may allocate for an input of n bytes: decoded
// objects and index entries are some dozens of times larger than their
// encoding, but nothing may grow with a number the input merely claims.
func allocBound(n int) uint64 { return 1<<20 + 512*uint64(n) }

// resealWAL recomputes the CRC of every frame whose length field fits, so
// mutations of a seed reach the record decoder instead of dying at the CRC.
func resealWAL(wal []byte) []byte {
	wal = bytes.Clone(wal)
	for off := 0; len(wal)-off >= frameHeader; {
		n := int(binary.LittleEndian.Uint32(wal[off:]))
		if n == 0 || n > len(wal)-off-frameHeader {
			break
		}
		binary.LittleEndian.PutUint32(wal[off+4:], crc32.ChecksumIEEE(wal[off+frameHeader:off+frameHeader+n]))
		off += frameHeader + n
	}
	return wal
}

// reseal makes a tampered checkpoint image's trailing CRC good again, in
// place, so the checks behind the CRC are the ones exercised.
func reseal(image []byte) []byte {
	if body := len(image) - 4; body >= 0 {
		binary.LittleEndian.PutUint32(image[body:], crc32.ChecksumIEEE(image[:body]))
	}
	return image
}

// FuzzWALRestore feeds arbitrary bytes to restore as the log, as given and
// with the frame CRCs made good. It must never panic; it fails only on a kind
// nobody registered; what it keeps is a prefix of the input that restores
// again to the same state with no torn tail; and it allocates in proportion
// to the input, whatever lengths the input claims.
func FuzzWALRestore(f *testing.F) {
	f.Fuzz(func(t *testing.T, data []byte) {
		for _, wal := range [][]byte{data, resealWAL(data)} {
			s, st, err, allocated := restoreMeasured(nil, wal)
			if allocated > allocBound(len(wal)) {
				t.Fatalf("restore of a %d-byte log allocated %d bytes", len(wal), allocated)
			}
			if err != nil {
				if !errors.Is(err, api.ErrUnregisteredKind) {
					t.Fatalf("restore failed on something other than an unregistered kind: %v", err)
				}
				if stored(s) != 0 {
					t.Fatal("a failed restore left objects in the store")
				}
				continue
			}
			kept := bytes.Clone(s.dur.wal)
			if !bytes.HasPrefix(wal, kept) || st.WALBytes != len(kept) || st.TornTail != (len(kept) < len(wal)) {
				t.Fatalf("kept %d of %d bytes (a prefix: %v), stats %+v", len(kept), len(wal), bytes.HasPrefix(wal, kept), st)
			}
			if _, _, records := s.DurableSizes(); records != int64(st.Replayed) {
				t.Fatalf("medium counts %d records, restore replayed %d", records, st.Replayed)
			}
			state := fingerprint(s)
			again, st2, err := restoreFrom(nil, kept)
			if err != nil || st2.TornTail || st2.Replayed != st.Replayed || st2.RestoredRev != st.RestoredRev ||
				!bytes.Equal(again.dur.wal, kept) || fingerprint(again) != state {
				t.Fatalf("the kept prefix did not restore to itself: err %v, stats %+v then %+v", err, st, st2)
			}
			// The store must be usable: the next write commits above everything restored.
			obj, err := s.Create(pod("after-restore"))
			if err == nil && obj.GetMeta().ResourceVersion <= st.RestoredRev {
				t.Fatalf("first write after restore at revision %d, restored %d", obj.GetMeta().ResourceVersion, st.RestoredRev)
			}
		}
	})
}

// FuzzCheckpointImage feeds arbitrary bytes to restore as the checkpoint
// image, as given and with the trailing CRC made good. The outcome is an
// error and an empty store, or a state whose own checkpoint restores to the
// same state — never a panic, never an allocation the input did not pay for.
func FuzzCheckpointImage(f *testing.F) {
	f.Fuzz(func(t *testing.T, data []byte) {
		for _, image := range [][]byte{data, reseal(bytes.Clone(data))} {
			s, st, err, allocated := restoreMeasured(image, nil)
			if allocated > allocBound(len(image)) {
				t.Fatalf("restore of a %d-byte image allocated %d bytes", len(image), allocated)
			}
			if err != nil {
				if stored(s) != 0 || s.Revision() != 0 {
					t.Fatalf("a failed restore left state behind: %d objects at revision %d", stored(s), s.Revision())
				}
				continue
			}
			if st.Replayed != 0 || st.TornTail || st.RestoredRev != st.CheckpointRev {
				t.Fatalf("checkpoint-only restore reports %+v", st)
			}
			state := fingerprint(s)
			s.Checkpoint()
			again, st2, err := restoreFrom(s.dur.checkpoint, nil)
			if err != nil || st2.CheckpointRev != st.CheckpointRev || fingerprint(again) != state {
				t.Fatalf("the restored state's own checkpoint did not restore to it: err %v, %+v then %+v", err, st, st2)
			}
			if again.Checkpoint(); !bytes.Equal(again.dur.checkpoint, s.dur.checkpoint) {
				t.Fatal("the same state checkpointed to different bytes")
			}
		}
	})
}
