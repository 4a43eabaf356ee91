package api_test

import (
	"bytes"
	"fmt"
	"reflect"
	"strings"
	"testing"

	"kubeshare/internal/kube/api"
)

// shape selects what populate puts in maps and slices.
type shape int

const (
	shapeFull  shape = iota // three-key maps, two-element slices, every scalar non-zero
	shapeEmpty              // empty non-nil maps and slices, scalars zero
	shapeNil                // the zero value: nil maps and slices
)

// populate sets every leaf reachable from v — through embedded and nested
// structs, slice elements and map values — to a value no other leaf has, so a
// codec that skips, swaps or truncates a field cannot round-trip. reverse
// inserts map keys in descending order.
func populate(v reflect.Value, sh shape, reverse bool, n *int) error {
	switch v.Kind() {
	case reflect.Struct:
		for i := 0; i < v.NumField(); i++ {
			if err := populate(v.Field(i), sh, reverse, n); err != nil {
				return fmt.Errorf("%s.%w", v.Type().Field(i).Name, err)
			}
		}
		return nil
	case reflect.Map:
		if sh == shapeNil {
			return nil
		}
		v.Set(reflect.MakeMap(v.Type()))
		if sh == shapeEmpty {
			return nil
		}
		*n++
		keys := []string{fmt.Sprintf("a%d", *n), fmt.Sprintf("b%d", *n), fmt.Sprintf("c%d", *n)}
		elems := make([]reflect.Value, len(keys))
		for i := range elems {
			elems[i] = reflect.New(v.Type().Elem()).Elem()
			if err := populate(elems[i], sh, reverse, n); err != nil {
				return err
			}
		}
		for i := range keys {
			if reverse {
				i = len(keys) - 1 - i
			}
			v.SetMapIndex(reflect.ValueOf(keys[i]).Convert(v.Type().Key()), elems[i])
		}
		return nil
	case reflect.Slice:
		if sh == shapeNil {
			return nil
		}
		v.Set(reflect.MakeSlice(v.Type(), 0, 2))
		if sh == shapeEmpty {
			return nil
		}
		v.Set(v.Slice(0, 2))
		for i := 0; i < 2; i++ {
			if err := populate(v.Index(i), sh, reverse, n); err != nil {
				return fmt.Errorf("[%d].%w", i, err)
			}
		}
		return nil
	}
	if sh != shapeFull {
		return nil // scalars stay zero
	}
	*n++
	switch v.Kind() {
	case reflect.String:
		v.SetString(fmt.Sprintf("s%d", *n))
	case reflect.Bool:
		v.SetBool(true)
	case reflect.Int, reflect.Int64:
		v.SetInt(int64(*n) * -1_000_003) // negative and wider than one varint byte
	case reflect.Float64:
		v.SetFloat(float64(*n) + 0.25)
	default:
		return fmt.Errorf("(%s): the codec test cannot populate a %s; teach it, and the codec", v.Type(), v.Kind())
	}
	return nil
}

// differing lists the paths at which a and b are not deeply equal, descending
// as far as the two values have the same shape.
func differing(path string, a, b reflect.Value) []string {
	if reflect.DeepEqual(a.Interface(), b.Interface()) {
		return nil
	}
	var out []string
	switch a.Kind() {
	case reflect.Struct:
		for i := 0; i < a.NumField(); i++ {
			out = append(out, differing(path+"."+a.Type().Field(i).Name, a.Field(i), b.Field(i))...)
		}
	case reflect.Slice:
		if a.Len() == b.Len() && a.IsNil() == b.IsNil() {
			for i := 0; i < a.Len(); i++ {
				out = append(out, differing(fmt.Sprintf("%s[%d]", path, i), a.Index(i), b.Index(i))...)
			}
		}
	}
	if out == nil {
		out = []string{fmt.Sprintf("%s (have %v, encoded %v)", path, b.Interface(), a.Interface())}
	}
	return out
}

// roundTrip populates a fresh object of the factory's kind in each shape and
// returns the paths that did not survive encode → decode, plus any violation
// of the framing rules: decode consumes exactly what encode produced, leaves
// trailing bytes alone, and fails on every strict prefix.
func roundTrip(newObj func() api.Object) (lost []string, err error) {
	for _, sh := range []shape{shapeFull, shapeEmpty, shapeNil} {
		obj, n := newObj(), 0
		if err := populate(reflect.ValueOf(obj).Elem(), sh, false, &n); err != nil {
			return nil, err
		}
		enc := obj.AppendBinary(nil)
		got := newObj()
		var d api.Dec
		d.Reset(append(enc[:len(enc):len(enc)], "tail"...))
		got.DecodeBinary(&d)
		if d.Err() != nil || d.Len() != len("tail") {
			return nil, fmt.Errorf("shape %d: decode of %d encoded bytes + 4 left %d unread (err %v): it must consume exactly what encode wrote", sh, len(enc), d.Len(), d.Err())
		}
		lost = append(lost, differing(obj.Kind(), reflect.ValueOf(obj).Elem(), reflect.ValueOf(got).Elem())...)
		for cut := 0; cut < len(enc); cut++ {
			d.Reset(enc[:cut])
			newObj().DecodeBinary(&d)
			if d.Err() == nil {
				return nil, fmt.Errorf("shape %d: the %d-byte prefix of a %d-byte encoding decoded without error", sh, cut, len(enc))
			}
		}
	}
	return lost, nil
}

// TestCodecCoversEveryField is the guard a hand-written codec needs: for every
// registered kind, every leaf field — found by reflection, so a field added
// tomorrow is included — must survive AppendBinary → DecodeBinary, with nil,
// empty and multi-key maps and slices kept apart. A struct that gains a field
// the codec does not write fails here, by name.
func TestCodecCoversEveryField(t *testing.T) {
	kinds := api.RegisteredKinds()
	if len(kinds) < 5 {
		t.Fatalf("only %v registered — the two api kinds and core's three should all be", kinds)
	}
	for _, kind := range kinds {
		lost, err := roundTrip(func() api.Object { o, _ := api.NewObject(kind); return o })
		if err != nil {
			t.Errorf("%s: %v", kind, err)
		}
		for _, path := range lost {
			t.Errorf("%s does not survive the binary codec: add it to AppendBinary and DecodeBinary", path)
		}
	}
}

// TestDeepCopyIsFaithful: for every registered kind, with full, empty and nil
// maps and slices, DeepCopyObject equals its original field for field. The
// store publishes the object a create is handed, and storetest's canary
// compares each published object against a DeepCopyObject of it, so a copy
// that turned a nil slice into an empty one would read as a mutation.
func TestDeepCopyIsFaithful(t *testing.T) {
	for _, kind := range api.RegisteredKinds() {
		for _, sh := range []shape{shapeFull, shapeEmpty, shapeNil} {
			obj, _ := api.NewObject(kind)
			n := 0
			if err := populate(reflect.ValueOf(obj).Elem(), sh, false, &n); err != nil {
				t.Fatal(err)
			}
			cp := obj.DeepCopyObject()
			for _, path := range differing(kind, reflect.ValueOf(obj).Elem(), reflect.ValueOf(cp).Elem()) {
				t.Errorf("shape %d: DeepCopyObject changed %s", sh, path)
			}
		}
	}
}

// TestCodecBytesAreDeterministic: equal objects encode to equal bytes whatever
// order their maps were built in (and whatever order Go iterates them in).
func TestCodecBytesAreDeterministic(t *testing.T) {
	for _, kind := range api.RegisteredKinds() {
		var want []byte
		for i := 0; i < 16; i++ {
			obj, _ := api.NewObject(kind)
			n := 0
			if err := populate(reflect.ValueOf(obj).Elem(), shapeFull, i%2 == 1, &n); err != nil {
				t.Fatalf("%s: %v", kind, err)
			}
			enc := obj.AppendBinary(nil)
			if want == nil {
				want = enc
			} else if !bytes.Equal(enc, want) {
				t.Fatalf("%s: build %d encoded to different bytes than build 0", kind, i)
			}
		}
	}
}

// gappy is the future TestCodecCoversEveryField exists for: a kind that grew
// two fields its codec was never taught, one of them inside a slice element.
type gappy struct {
	api.ObjectMeta
	Replicas int
	Paused   bool
	Ports    []struct {
		Name string
		Port int
	}
}

func (g *gappy) GetMeta() *api.ObjectMeta   { return &g.ObjectMeta }
func (g *gappy) Kind() string               { return "Gappy" }
func (g *gappy) DeepCopyObject() api.Object { panic("unused") }
func (g *gappy) AppendBinary(dst []byte) []byte {
	dst = api.AppendVarint(g.AppendMeta(dst), int64(g.Replicas))
	dst = api.AppendBool(dst, g.Ports != nil)
	if g.Ports != nil {
		dst = api.AppendUvarint(dst, uint64(len(g.Ports)))
		for _, p := range g.Ports {
			dst = api.AppendString(dst, p.Name)
		}
	}
	return dst
}
func (g *gappy) DecodeBinary(d *api.Dec) {
	g.DecodeMeta(d)
	g.Replicas = d.Int()
	if d.Bool() {
		g.Ports = make([]struct {
			Name string
			Port int
		}, d.Count(1))
		for i := range g.Ports {
			g.Ports[i].Name = d.String()
		}
	}
}

func TestCodecGuardBites(t *testing.T) {
	lost, err := roundTrip(func() api.Object { return &gappy{} })
	if err != nil {
		t.Fatal(err)
	}
	var paths []string
	for _, l := range lost {
		path, _, _ := strings.Cut(l, " ")
		paths = append(paths, path)
	}
	want := []string{"Gappy.Paused", "Gappy.Ports[0].Port", "Gappy.Ports[1].Port"}
	if !reflect.DeepEqual(paths, want) {
		t.Fatalf("lost paths = %v, want %v", lost, want)
	}
}

// TestDecRejectsHostileInput pins the cursor's bounds: a count or length
// larger than the bytes behind it fails before anything is allocated, and
// non-canonical maps and bools are refused.
func TestDecRejectsHostileInput(t *testing.T) {
	huge := api.AppendUvarint(nil, 1<<40)
	sorted := api.AppendStringMap(nil, map[string]string{"a": "1", "b": "2"})
	swapped := bytes.Replace(sorted, []byte("\x01a\x011\x01b\x012"), []byte("\x01b\x012\x01a\x011"), 1)
	dup := bytes.Replace(sorted, []byte("\x01b"), []byte("\x01a"), 1)
	present, padded := append([]byte{1}, huge...), append(huge, 1, 2, 3)
	cases := map[string]func(d *api.Dec){
		"string length past the end": func(d *api.Dec) { d.Reset(huge); _ = d.String() },
		"map count past the end":     func(d *api.Dec) { d.Reset(present); d.StringMap() },
		"list count past the end":    func(d *api.Dec) { d.Reset(present); d.ResourceList() },
		"element count past the end": func(d *api.Dec) { d.Reset(padded); d.Count(5) },
		"bool of 2":                  func(d *api.Dec) { d.Reset([]byte{2}); d.Bool() },
		"map keys out of order":      func(d *api.Dec) { d.Reset(swapped); d.StringMap() },
		"map key twice":              func(d *api.Dec) { d.Reset(dup); d.StringMap() },
		"overlong varint":            func(d *api.Dec) { d.Reset(bytes.Repeat([]byte{0x80}, 11)); d.Varint() },
	}
	for name, read := range cases {
		var d api.Dec
		if allocs := testing.AllocsPerRun(10, func() { read(&d) }); d.Err() == nil || d.Len() != 0 {
			t.Errorf("%s: err %v with %d bytes left, want a sticky error and an exhausted cursor", name, d.Err(), d.Len())
		} else if strings.Contains(name, "past the end") && allocs > 1 {
			t.Errorf("%s: %v allocations before failing", name, allocs)
		}
	}
	var d api.Dec
	d.Reset(sorted)
	if m := d.StringMap(); d.Err() != nil || len(m) != 2 {
		t.Fatalf("the sorted control map failed to decode: %v", d.Err())
	}
}
