// Durability: a deterministic write-ahead log plus periodic checkpoints,
// the etcd-analogue persistence layer behind apiserver crash/restart chaos.
//
// The durable medium is a byte buffer standing in for the WAL file and
// checkpoint file a real control plane fsyncs — it survives a Store crash
// because Crash only discards the in-memory object state and rebuilds it
// from the medium. Objects are held in their binary form (api/binary.go);
// there is one format and no reader for any other.
//
// Every mutation appends one frame under the store's write lock, so record
// order is commit order:
//
//	[len u32][crc32 u32][payload]      little-endian; CRC-32 (IEEE) of payload
//	payload = op byte · rev varint · kind · name · object bytes (puts only)
//
// A checkpoint serializes the whole store under the same lock and truncates
// the log. The image:
//
//	"KSCK" · version byte · rev varint · nextUID varint · kind count
//	per kind (name order):  kind · object count
//	per object (name order): [len u32][object bytes]
//	[crc32 u32] of everything before it
//
// Restore loads the checkpoint, then replays the log in frame order. A torn
// tail — a truncated or corrupt final region, the crash-mid-write case — is
// detected by the frame length/CRC/decode checks (a frame counts only once
// its whole payload, object included, decoded with no byte left over),
// truncated off the medium, and replay stops there: the store recovers to
// the longest valid prefix and never wedges. The checkpoint is written whole,
// never appended, so damage there is no crash artifact: Crash returns it as
// an error. Consumers that observed a reverted mutation are fenced by the
// revision rules (see WatchFilteredFrom) and by the restart epoch.
//
// All timestamps in this layer are virtual-clock values carried as int64
// nanoseconds; the file deliberately imports neither os nor time (enforced
// by tools/detvet) — durability is simulated, deterministic state, not host
// I/O.
package store

import (
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"maps"
	"slices"
	"strconv"
	"strings"

	"kubeshare/internal/kube/api"
	"kubeshare/internal/sim"
)

// Modeled durable-medium costs, in virtual nanoseconds. They price the
// outage a real restart of the same footprint would incur: sequential
// reads/writes at ~1 GB/s and a per-record replay cost covering decode and
// index insertion. RestoreStats.ModeledOutageNS and the fig17 experiment
// are built from these.
const (
	// DurableIONSPerByte prices sequential checkpoint/WAL reads and writes.
	DurableIONSPerByte = 1
	// ReplayNSPerRecord prices decoding and applying one WAL record.
	ReplayNSPerRecord = 2000
)

// walPut/walDelete tag WAL records. A put carries the full post-mutation
// stored object (spec-vs-status subresource merging already happened), so
// replay is a blind upsert; a delete carries only the key.
const (
	walPut    byte = 1
	walDelete byte = 2
)

// frameHeader is the [len u32][crc32 u32] in front of every WAL payload.
const frameHeader = 8

// checkpointMagic opens every checkpoint image; its last byte is the format
// version of the whole medium.
const checkpointMagic = "KSCK\x02"

// Durable is the simulated durable medium: the checkpoint area plus the
// append-only log. It is owned by the Store that writes it but survives
// Crash, exactly as the files under an etcd data dir survive the process.
// Guarded by the owning Store's lock.
type Durable struct {
	checkpoint []byte // last serialized checkpoint; nil before the first
	wal        []byte // framed records appended since that checkpoint
	records    int64  // frames currently in wal
}

// DurableSizes reports the medium's current footprint: checkpoint bytes, WAL
// bytes and WAL record count (zeroes with durability off).
func (s *Store) DurableSizes() (checkpointBytes, walBytes int, walRecords int64) {
	s.mu.RLock()
	defer s.mu.RUnlock()
	if s.dur == nil {
		return 0, 0, 0
	}
	return len(s.dur.checkpoint), len(s.dur.wal), s.dur.records
}

// RestoreStats describes one crash/restore cycle.
type RestoreStats struct {
	// CheckpointRev is the revision the loaded checkpoint was taken at
	// (zero when the store restored from an empty medium).
	CheckpointRev int64
	// RestoredRev is the store revision after replay; the next mutation
	// commits strictly above it.
	RestoredRev int64
	// Replayed is the number of WAL records applied on top of the
	// checkpoint.
	Replayed int
	// TornTail is true when the log ended in a truncated or corrupt region
	// that was cut off; mutations in it were reverted.
	TornTail bool
	// CheckpointBytes and WALBytes are the medium footprint read back.
	CheckpointBytes int
	WALBytes        int
	// ModeledOutageNS prices the restart a real system of this footprint
	// would pay: sequential re-read of checkpoint + log, plus per-record
	// replay (virtual nanoseconds; the simulated restore itself is
	// instantaneous).
	ModeledOutageNS int64
}

// EnableDurability attaches a fresh durable medium and takes an immediate
// checkpoint of the current state, so a crash at any later instant can
// restore everything (enabling on a non-empty store is the common case: the
// cluster wires its nodes first). Hooks observe the layer for telemetry:
// onAppend fires per batch of WAL records, onCheckpoint per checkpoint with
// the bytes written; either may be nil. Idempotent: re-enabling keeps the
// existing medium.
func (s *Store) EnableDurability(onAppend func(records int), onCheckpoint func(bytes int)) {
	s.mu.Lock()
	if s.dur != nil {
		s.mu.Unlock()
		return
	}
	s.onWALAppend = onAppend
	s.onCheckpoint = onCheckpoint
	s.dur = &Durable{}
	s.mu.Unlock()
	s.Checkpoint()
}

// DurabilityEnabled reports whether the store has a durable medium.
func (s *Store) DurabilityEnabled() bool {
	s.mu.RLock()
	defer s.mu.RUnlock()
	return s.dur != nil
}

// Epoch counts crash/restore cycles. Consumers (reflectors, schedulers)
// compare epochs across reconnects: a changed epoch means in-memory server
// state they depended on — watch registrations, possibly torn-tail-reverted
// mutations — did not survive, and they must relist rather than resume.
func (s *Store) Epoch() int64 { return s.epoch.Load() }

// logMutation appends one frame for ev, encoding in place at the log's end:
// reserve the header, append the payload, back-patch length and CRC. Callers
// hold the write lock, so frame order is commit order.
func (s *Store) logMutation(ev Event) {
	d := s.dur
	if d == nil {
		return
	}
	start := len(d.wal)
	w := append(d.wal, make([]byte, frameHeader)...)
	op := walPut
	if ev.Type == Deleted {
		op = walDelete
	}
	w = api.AppendVarint(append(w, op), ev.Rev)
	w = api.AppendString(api.AppendString(w, ev.Object.Kind()), ev.Object.GetMeta().Name)
	if op == walPut {
		w = ev.Object.AppendBinary(w)
	}
	payload := w[start+frameHeader:]
	binary.LittleEndian.PutUint32(w[start:], uint32(len(payload)))
	binary.LittleEndian.PutUint32(w[start+4:], crc32.ChecksumIEEE(payload))
	d.wal = w
	d.records++
	if s.onWALAppend != nil {
		s.onWALAppend(1)
	}
}

// Checkpoint serializes the whole store to the durable medium and truncates
// the WAL. It runs under the write lock, so the image is a consistent cut:
// no mutation straddles the boundary; kinds and objects go out in name order,
// so the image is byte-deterministic for a given store state. The previous
// image's buffer is rewritten in place. Returns the checkpoint size in bytes
// (0 when durability is off).
func (s *Store) Checkpoint() int {
	s.mu.Lock()
	d := s.dur
	if d == nil {
		s.mu.Unlock()
		return 0
	}
	img := append(d.checkpoint[:0], checkpointMagic...)
	img = api.AppendVarint(api.AppendVarint(img, s.rev.Load()), s.nextUID.Load())
	kinds := s.kindNames()
	img = api.AppendUvarint(img, uint64(len(kinds)))
	for _, kind := range kinds {
		b := s.kinds[kind]
		img = api.AppendUvarint(api.AppendString(img, kind), uint64(len(b.objs)))
		for _, name := range b.sorted {
			at := len(img)
			img = b.objs[name].AppendBinary(append(img, 0, 0, 0, 0))
			binary.LittleEndian.PutUint32(img[at:], uint32(len(img)-at-4))
		}
	}
	img = binary.LittleEndian.AppendUint32(img, crc32.ChecksumIEEE(img))
	d.checkpoint = img
	d.wal = d.wal[:0]
	d.records = 0
	onCheckpoint := s.onCheckpoint
	s.mu.Unlock()
	if onCheckpoint != nil {
		onCheckpoint(len(img))
	}
	return len(img)
}

// TearWALTail damages the durable log's tail — the chaos hook simulating a
// crash mid-write. n > 0 truncates the last n bytes (clamped); n <= 0 flips
// the final byte in place (a CRC failure). Reports whether there was any
// log to damage.
func (s *Store) TearWALTail(n int) bool {
	s.mu.Lock()
	defer s.mu.Unlock()
	d := s.dur
	if d == nil || len(d.wal) == 0 {
		return false
	}
	if n <= 0 {
		d.wal[len(d.wal)-1] ^= 0xFF
		return true
	}
	if n > len(d.wal) {
		n = len(d.wal)
	}
	d.wal = d.wal[:len(d.wal)-n]
	return true
}

// Crash discards every piece of in-memory state — objects, indexes, watch
// registrations, resumable history — as an apiserver process death would,
// then restores from the durable medium: checkpoint load plus WAL replay
// with torn-tail truncation. All watch queues close — in kind-name order,
// and within a kind in registration order, so subscribers see EOF (and
// reconnect) in the same order every run — the restart epoch increments, and
// the compaction horizon moves to the restored revision so every
// resume-from-before-the-crash gets ErrGone and relists. It returns an error when durability was never enabled, and
// when the medium cannot be read back — a damaged checkpoint image, or a
// kind no package registered — which leaves the store empty: a control plane
// that cannot read its data dir does not come up.
func (s *Store) Crash() (RestoreStats, error) {
	s.mu.Lock()
	if s.dur == nil {
		s.mu.Unlock()
		return RestoreStats{}, fmt.Errorf("store: Crash without durability enabled")
	}
	// Tear down: collect every watch queue, clear all object state.
	var doomed []*sim.Queue[Event]
	for _, kind := range s.kindNames() {
		for _, w := range s.kinds[kind].watchers {
			doomed = append(doomed, w.queue)
		}
	}
	s.history = nil
	s.histHead = 0

	st, err := s.restore()
	if err != nil {
		s.kinds = make(map[string]*bucket)
	}
	s.epoch.Add(1)
	s.mu.Unlock()

	// Close the dead queues last, outside the lock (closing wakes parked
	// consumers, whose reconnects must observe the fully restored state).
	for _, q := range doomed {
		q.Close()
	}
	return st, err
}

// restore rebuilds the object state from the medium. Caller holds the write
// lock.
func (s *Store) restore() (RestoreStats, error) {
	s.kinds = make(map[string]*bucket)
	d := s.dur
	st := RestoreStats{CheckpointBytes: len(d.checkpoint)}

	// 1. Checkpoint load.
	maxRev, nextUID, err := s.loadCheckpoint(d.checkpoint)
	if err != nil {
		return st, err
	}
	st.CheckpointRev = maxRev

	// 2. WAL replay. Each frame is checked and decoded once and applied as
	// soon as it proves whole; the first one that does not ends the log.
	var dec api.Dec
	off := 0
	for off < len(d.wal) {
		n, ok := frameAt(d.wal[off:])
		if !ok {
			break
		}
		rec, err := decodeRecord(&dec, d.wal[off+frameHeader:off+n])
		if errors.Is(err, api.ErrUnregisteredKind) {
			return st, fmt.Errorf("store: wal record %d: %w", st.Replayed, err)
		}
		if err != nil {
			break
		}
		b := s.bucketOf(rec.kind)
		if rec.obj != nil {
			b.put(rec.obj)
			nextUID = max(nextUID, parseUID(rec.obj.GetMeta().UID))
		} else if prev, ok := b.objs[rec.name]; ok {
			b.unindexLabels(rec.name, prev.GetMeta().Labels)
			delete(b.objs, rec.name)
		}
		maxRev = max(maxRev, rec.rev)
		st.Replayed++
		off += n
	}
	// A torn tail is cut off the medium: the next restore reads a clean log.
	st.TornTail = off < len(d.wal)
	st.WALBytes = off
	d.wal = d.wal[:off]
	d.records = int64(st.Replayed)
	for _, b := range s.kinds { // puts and deletes above kept no name order
		b.sorted = slices.Sorted(maps.Keys(b.objs))
	}

	// 3. Counters resume strictly above everything restored: the revision
	// is the max over the checkpoint cut and every replayed record, so the
	// next mutation commits above every restored object.
	s.rev.Store(maxRev)
	s.nextUID.Store(nextUID)
	s.compactRev = maxRev
	st.RestoredRev = maxRev
	st.ModeledOutageNS = int64(st.CheckpointBytes+st.WALBytes)*DurableIONSPerByte +
		int64(st.Replayed)*ReplayNSPerRecord
	return st, nil
}

// put installs a decoded object in the bucket and its label index, replacing
// any earlier revision of the same name.
func (b *bucket) put(obj api.Object) {
	meta := obj.GetMeta()
	if prev, ok := b.objs[meta.Name]; ok {
		b.unindexLabels(meta.Name, prev.GetMeta().Labels)
	}
	b.objs[meta.Name] = obj
	b.indexLabels(meta.Name, meta.Labels)
}

// loadCheckpoint decodes a checkpoint image into the (empty) store and
// returns the revision it was taken at and its UID counter. A nil image is
// an empty medium; anything else must check out whole: magic and version,
// CRC, every object to its last byte, nothing left over.
func (s *Store) loadCheckpoint(image []byte) (rev, nextUID int64, err error) {
	if image == nil {
		return 0, 0, nil
	}
	body := len(image) - 4
	if body < len(checkpointMagic) || string(image[:len(checkpointMagic)]) != checkpointMagic {
		return 0, 0, errors.New("store: checkpoint corrupt: bad magic or version")
	}
	if crc32.ChecksumIEEE(image[:body]) != binary.LittleEndian.Uint32(image[body:]) {
		return 0, 0, errors.New("store: checkpoint corrupt: CRC mismatch")
	}
	var dec, one api.Dec // the image, and one object inside it
	dec.Reset(image[len(checkpointMagic):body])
	rev, nextUID = dec.Varint(), dec.Varint()
	for kinds := dec.Count(2); kinds > 0 && dec.Err() == nil; kinds-- {
		kind := dec.String()
		b := s.bucketOf(kind)
		for objs := dec.Count(4); objs > 0 && dec.Err() == nil; objs-- {
			one.Reset(dec.Next(int(dec.Uint32())))
			obj, err := decodeObject(&one, kind)
			if err != nil {
				return 0, 0, fmt.Errorf("store: checkpoint corrupt: %w", err)
			}
			b.put(obj)
		}
	}
	if dec.Err() != nil || dec.Len() != 0 {
		return 0, 0, fmt.Errorf("store: checkpoint corrupt: %d trailing bytes, %v", dec.Len(), dec.Err())
	}
	return rev, nextUID, nil
}

// frameAt checks the frame at the head of wal — header fits, declared length
// is positive and fits, CRC matches — and returns its total size.
func frameAt(wal []byte) (size int, ok bool) {
	if len(wal) < frameHeader {
		return 0, false
	}
	n := binary.LittleEndian.Uint32(wal)
	if n == 0 || uint64(n) > uint64(len(wal)-frameHeader) {
		return 0, false
	}
	size = frameHeader + int(n)
	return size, crc32.ChecksumIEEE(wal[frameHeader:size]) == binary.LittleEndian.Uint32(wal[4:])
}

// walRecord is one decoded frame; obj is nil for deletes.
type walRecord struct {
	rev        int64
	kind, name string
	obj        api.Object
}

var errRecord = errors.New("store: malformed wal record")

// decodeRecord decodes one frame's payload completely — the put's object
// included, with no byte left over — so a record that decodes is a record
// replay can apply.
func decodeRecord(d *api.Dec, payload []byte) (rec walRecord, err error) {
	d.Reset(payload)
	op := d.Byte()
	rec.rev, rec.kind, rec.name = d.Varint(), d.String(), d.String()
	switch {
	case d.Err() != nil:
		err = d.Err()
	case op == walPut:
		rec.obj, err = decodeObject(d, rec.kind)
		if err == nil && rec.obj.GetMeta().Name != rec.name {
			err = errRecord
		}
	case op != walDelete || d.Len() != 0:
		err = errRecord
	}
	return rec, err
}

// decodeObject rebuilds a typed object of the given kind (via the kind
// registry) from the rest of d, which it must consume exactly.
func decodeObject(d *api.Dec, kind string) (api.Object, error) {
	obj, err := api.NewObject(kind)
	if err != nil {
		return nil, err
	}
	obj.DecodeBinary(d)
	if d.Err() != nil {
		return nil, fmt.Errorf("%s object: %w", kind, d.Err())
	}
	if d.Len() != 0 {
		return nil, fmt.Errorf("%s object: %d trailing bytes", kind, d.Len())
	}
	return obj, nil
}

// parseUID extracts N from the store's "uid-N" UID scheme (0 for foreign
// forms), letting restore advance the UID counter past every restored
// object.
func parseUID(uid string) int64 {
	num, ok := strings.CutPrefix(uid, "uid-")
	if !ok {
		return 0
	}
	n, err := strconv.ParseInt(num, 10, 64)
	if err != nil {
		return 0
	}
	return n
}
