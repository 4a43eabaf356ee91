package api

import (
	"encoding/binary"
	"errors"
	"math"
	"slices"
	"time"
	"unsafe"
)

// The binary object codec: what the store's durable medium (WAL records and
// checkpoint images, see store/wal.go) holds. Every kind hand-writes an
// AppendBinary/DecodeBinary pair next to its DeepCopyObject, field by field
// in declaration order, out of the helpers below — a field added to a struct
// is added in three places, and TestCodecCoversEveryField names the one that
// was forgotten.
//
// Encoding: integers and durations are varints, counts and lengths uvarints,
// strings a length then the bytes, bools one byte (0 or 1), floats their
// IEEE-754 bits little-endian. Maps and slices lead with a presence byte so
// nil and empty survive the round trip; map entries are written in ascending
// key order and the decoder rejects any other order, so equal objects encode
// to equal bytes. There are no field tags and no version inside an object:
// the medium's header carries the one format version.

// Errors a Dec reports. A hostile or damaged input produces one of these,
// never a panic and never an allocation larger than the input.
var (
	errTruncated = errors.New("api: binary decode: input truncated")
	errMalformed = errors.New("api: binary decode: malformed input")
)

// Dec is a bounds-checked read cursor over encoded bytes. The first failure
// sticks: every later read returns a zero value, so decoders read straight
// through and check Err once at the end.
type Dec struct {
	b     []byte
	frame string // after ResetCopy: the private copy b is a suffix of
	err   error
}

// Reset points the cursor at b and clears the error. b is not copied, so
// String copies every string out of it.
func (d *Dec) Reset(b []byte) { d.b, d.frame, d.err = b, "", nil }

// ResetCopy is Reset over one private copy of b: every String is a substring
// of that copy, so decoding an object costs one allocation for all its
// strings, none of which alias b. The copy stays alive while any of them is.
func (d *Dec) ResetCopy(b []byte) {
	d.frame, d.err = string(b), nil
	d.b = unsafe.Slice(unsafe.StringData(d.frame), len(d.frame)) // read only
}

// Err returns the first failure, or nil.
func (d *Dec) Err() error { return d.err }

// Len returns the number of unread bytes (zero after a failure).
func (d *Dec) Len() int { return len(d.b) }

func (d *Dec) fail(err error) {
	if d.err == nil {
		d.err = err
	}
	d.b = nil
}

// Varint reads a signed varint.
func (d *Dec) Varint() int64 {
	v, n := binary.Varint(d.b)
	if n <= 0 {
		d.fail(errTruncated)
		return 0
	}
	d.b = d.b[n:]
	return v
}

// Int reads a signed varint as an int.
func (d *Dec) Int() int { return int(d.Varint()) }

// Duration reads a signed varint as nanoseconds.
func (d *Dec) Duration() time.Duration { return time.Duration(d.Varint()) }

// Next reads n raw bytes; the result aliases the input and must not be
// written.
func (d *Dec) Next(n int) []byte {
	if n < 0 || n > len(d.b) {
		d.fail(errTruncated)
		return nil
	}
	out := d.b[:n]
	d.b = d.b[n:]
	return out
}

// Byte reads one byte.
func (d *Dec) Byte() byte {
	if b := d.Next(1); b != nil {
		return b[0]
	}
	return 0
}

// Bool reads one byte that must be 0 or 1.
func (d *Dec) Bool() bool {
	c := d.Byte()
	if c > 1 {
		d.fail(errMalformed)
	}
	return c == 1
}

// Uint32 reads four little-endian bytes.
func (d *Dec) Uint32() uint32 {
	if b := d.Next(4); b != nil {
		return binary.LittleEndian.Uint32(b)
	}
	return 0
}

// Float64 reads eight little-endian bytes of IEEE-754 bits.
func (d *Dec) Float64() float64 {
	if b := d.Next(8); b != nil {
		return math.Float64frombits(binary.LittleEndian.Uint64(b))
	}
	return 0
}

// Count reads an element count (a uvarint) for a sequence whose elements
// occupy at least elemMin bytes each, and fails when the bytes remaining
// cannot hold that many — so a length prefix can never make a decoder
// allocate more than the input it was given.
func (d *Dec) Count(elemMin int) int {
	n, w := binary.Uvarint(d.b)
	if w <= 0 || n > uint64((len(d.b)-w)/elemMin) {
		d.fail(errTruncated)
		return 0
	}
	d.b = d.b[w:]
	return int(n)
}

// String reads a length-prefixed string.
func (d *Dec) String() string {
	n := d.Count(1)
	if d.frame == "" {
		return string(d.Next(n))
	}
	at := len(d.frame) - len(d.b)
	d.Next(n)
	return d.frame[at : at+n]
}

// decodeMap reads what appendMap wrote: a presence byte, a count, and the
// entries, whose keys must ascend strictly (no duplicates, one canonical form).
func decodeMap[V any](d *Dec, val func(*Dec) V) map[string]V {
	if !d.Bool() {
		return nil
	}
	n := d.Count(2)
	m := make(map[string]V, n)
	prev := ""
	for i := 0; i < n && d.err == nil; i++ {
		k := d.String()
		m[k] = val(d)
		if i > 0 && k <= prev {
			d.fail(errMalformed)
		}
		prev = k
	}
	return m
}

// StringMap reads what AppendStringMap wrote.
func (d *Dec) StringMap() map[string]string { return decodeMap(d, (*Dec).String) }

// ResourceList reads what AppendResourceList wrote.
func (d *Dec) ResourceList() ResourceList { return decodeMap(d, (*Dec).Varint) }

// AppendUvarint appends v as an unsigned varint.
func AppendUvarint(dst []byte, v uint64) []byte { return binary.AppendUvarint(dst, v) }

// AppendVarint appends v as a signed varint (ints and durations too).
func AppendVarint(dst []byte, v int64) []byte { return binary.AppendVarint(dst, v) }

// AppendBool appends one byte, 0 or 1.
func AppendBool(dst []byte, v bool) []byte {
	if v {
		return append(dst, 1)
	}
	return append(dst, 0)
}

// AppendFloat64 appends v's IEEE-754 bits, little-endian.
func AppendFloat64(dst []byte, v float64) []byte {
	return binary.LittleEndian.AppendUint64(dst, math.Float64bits(v))
}

// AppendString appends a length-prefixed string.
func AppendString(dst []byte, s string) []byte {
	return append(binary.AppendUvarint(dst, uint64(len(s))), s...)
}

// appendMap appends a presence byte, then for a non-nil map its count and its
// entries in ascending key order. Keys sort in a stack array, so maps of up
// to 16 entries encode without allocating.
func appendMap[V any](dst []byte, m map[string]V, val func([]byte, V) []byte) []byte {
	dst = AppendBool(dst, m != nil)
	if m == nil {
		return dst
	}
	dst = binary.AppendUvarint(dst, uint64(len(m)))
	var buf [16]string
	keys := buf[:0]
	for k := range m {
		keys = append(keys, k)
	}
	slices.Sort(keys)
	for _, k := range keys {
		dst = val(AppendString(dst, k), m[k])
	}
	return dst
}

// AppendStringMap appends a map of strings (see appendMap).
func AppendStringMap(dst []byte, m map[string]string) []byte {
	return appendMap(dst, m, AppendString)
}

// AppendResourceList appends a map of quantities, values as varints.
func AppendResourceList(dst []byte, r ResourceList) []byte {
	return appendMap(dst, r, AppendVarint)
}
