package api_test

import (
	"fmt"
	"reflect"
	"testing"

	_ "kubeshare/internal/core" // registers SharePod, SharePodSet and VGPU
	"kubeshare/internal/kube/api"
)

// fill sets every field reachable from v to a non-zero value, giving each
// map, slice and pointer something to alias.
func fill(v reflect.Value) error {
	switch v.Kind() {
	case reflect.String:
		v.SetString("x")
	case reflect.Bool:
		v.SetBool(true)
	case reflect.Int, reflect.Int8, reflect.Int16, reflect.Int32, reflect.Int64:
		v.SetInt(1)
	case reflect.Uint, reflect.Uint8, reflect.Uint16, reflect.Uint32, reflect.Uint64:
		v.SetUint(1)
	case reflect.Float32, reflect.Float64:
		v.SetFloat(1)
	case reflect.Struct:
		for i := 0; i < v.NumField(); i++ {
			if err := fill(v.Field(i)); err != nil {
				return fmt.Errorf("%s.%w", v.Type().Field(i).Name, err)
			}
		}
	case reflect.Map:
		k, e := reflect.New(v.Type().Key()).Elem(), reflect.New(v.Type().Elem()).Elem()
		if err := fill(k); err != nil {
			return err
		}
		if err := fill(e); err != nil {
			return err
		}
		v.Set(reflect.MakeMap(v.Type()))
		v.SetMapIndex(k, e)
	case reflect.Slice:
		v.Set(reflect.MakeSlice(v.Type(), 1, 1))
		return fill(v.Index(0))
	case reflect.Array:
		for i := 0; i < v.Len(); i++ {
			if err := fill(v.Index(i)); err != nil {
				return err
			}
		}
	case reflect.Pointer:
		v.Set(reflect.New(v.Type().Elem()))
		return fill(v.Elem())
	default:
		return fmt.Errorf("(%s): this test cannot populate a %s; teach it, and make WithStatusFrom clone the field", v.Type(), v.Kind())
	}
	return nil
}

// aliased lists the paths at which dst holds a map, slice or pointer that
// shares memory with the same path in src.
func aliased(path string, dst, src reflect.Value) []string {
	switch dst.Kind() {
	case reflect.Map, reflect.Slice, reflect.Pointer:
		if dst.IsNil() || src.IsNil() {
			return nil
		}
		if dst.Pointer() == src.Pointer() {
			return []string{path}
		}
	}
	var out []string
	switch dst.Kind() {
	case reflect.Pointer:
		return aliased(path, dst.Elem(), src.Elem())
	case reflect.Struct:
		for i := 0; i < dst.NumField(); i++ {
			out = append(out, aliased(path+"."+dst.Type().Field(i).Name, dst.Field(i), src.Field(i))...)
		}
	case reflect.Map:
		for _, k := range dst.MapKeys() {
			if sv := src.MapIndex(k); sv.IsValid() {
				out = append(out, aliased(fmt.Sprintf("%s[%v]", path, k), dst.MapIndex(k), sv)...)
			}
		}
	case reflect.Slice, reflect.Array:
		for i := 0; i < dst.Len() && i < src.Len(); i++ {
			out = append(out, aliased(fmt.Sprintf("%s[%d]", path, i), dst.Index(i), src.Index(i))...)
		}
	}
	return out
}

// statusOf returns the addressable Status field every carrier has.
func statusOf(o api.Object) reflect.Value {
	return reflect.ValueOf(o).Elem().FieldByName("Status")
}

// statusAliases builds a fully populated receiver with a zero status and a
// fully populated argument, runs WithStatusFrom, and checks the contract:
// a new object, the receiver untouched, the argument's status on the
// receiver's spec and metadata, every map, slice and pointer outside Status
// shared with the receiver. It returns the paths the result shares with the
// argument — there must be none, self-application included.
func statusAliases(newObj func() api.StatusCarrier) ([]string, error) {
	recv, src := newObj(), newObj()
	for _, o := range []api.StatusCarrier{recv, src} {
		if err := fill(reflect.ValueOf(o).Elem()); err != nil {
			return nil, err
		}
	}
	statusOf(recv).SetZero()
	before := newObj()
	if err := fill(reflect.ValueOf(before).Elem()); err != nil {
		return nil, err
	}
	statusOf(before).SetZero()

	out := recv.WithStatusFrom(src)
	if out == api.Object(recv) || out == api.Object(src) {
		return nil, fmt.Errorf("WithStatusFrom returned its receiver or argument, not a new object")
	}
	if !reflect.DeepEqual(recv, before) {
		return nil, fmt.Errorf("WithStatusFrom modified its receiver")
	}
	if !reflect.DeepEqual(statusOf(out).Interface(), statusOf(src).Interface()) {
		return nil, fmt.Errorf("WithStatusFrom did not carry the argument's status")
	}
	kind := src.Kind()
	outV, recvV := reflect.ValueOf(out).Elem(), reflect.ValueOf(recv).Elem()
	if got, want := aliased(kind, outV, recvV), aliased(kind, recvV, recvV); !reflect.DeepEqual(got, want) {
		return nil, fmt.Errorf("WithStatusFrom shares %v with its receiver, want its whole spec and metadata: %v", got, want)
	}
	leaks := aliased(kind, outV, reflect.ValueOf(src).Elem())
	// x.WithStatusFrom(x) is how MutateStatus builds its closure's object:
	// the status must be a copy there too.
	self := src.WithStatusFrom(src)
	leaks = append(leaks, aliased(kind+"(self)", statusOf(self), statusOf(src))...)
	return leaks, nil
}

// TestWithStatusFromSharesNoMemory guards the store's ownership rule at the
// one place it is a field away from breaking: a status write publishes
// stored.WithStatusFrom(caller's object), and Pod, SharePod and VGPU
// implement that as a struct assignment — safe only while their status holds
// no map, slice or pointer. A status type that gains one (say Conditions
// []Condition) without cloning it there would make an immutable shared
// snapshot alias the caller's argument, or MutateStatus's closure alias the
// snapshot; this fails first. The other half of the contract is the saving:
// the result shares the receiver's spec and metadata instead of copying them.
func TestWithStatusFromSharesNoMemory(t *testing.T) {
	carriers := 0
	for _, kind := range api.RegisteredKinds() {
		obj, err := api.NewObject(kind)
		if err != nil {
			t.Fatal(err)
		}
		if _, ok := obj.(api.StatusCarrier); !ok {
			continue
		}
		carriers++
		shared, err := statusAliases(func() api.StatusCarrier {
			o, _ := api.NewObject(kind)
			return o.(api.StatusCarrier)
		})
		if err != nil {
			t.Errorf("%s: %v", kind, err)
		}
		for _, path := range shared {
			t.Errorf("%s.WithStatusFrom leaves %s sharing memory with its argument: clone it", kind, path)
		}
	}
	if carriers < 4 {
		t.Fatalf("only %d status carriers among %v — Pod, Node, SharePod and VGPU should all be registered", carriers, api.RegisteredKinds())
	}
}

// leaky is the future this test exists for: a status that grew a slice and a
// map, and a WithStatusFrom nobody revisited.
type leaky struct {
	api.ObjectMeta
	Status struct {
		Phase      string
		Conditions []string
		Seen       map[string]int64
	}
}

func (l *leaky) GetMeta() *api.ObjectMeta   { return &l.ObjectMeta }
func (l *leaky) Kind() string               { return "Leaky" }
func (l *leaky) DeepCopyObject() api.Object { panic("unused") }
func (l *leaky) AppendBinary([]byte) []byte { panic("unused") }
func (l *leaky) DecodeBinary(*api.Dec)      { panic("unused") }
func (l *leaky) WithStatusFrom(src api.Object) api.Object {
	out := *l
	out.Status = src.(*leaky).Status
	return &out
}

func TestWithStatusFromGuardBites(t *testing.T) {
	shared, err := statusAliases(func() api.StatusCarrier { return &leaky{} })
	if err != nil {
		t.Fatal(err)
	}
	want := []string{
		"Leaky.Status.Conditions", "Leaky.Status.Seen",
		"Leaky(self).Conditions", "Leaky(self).Seen",
	}
	if !reflect.DeepEqual(shared, want) {
		t.Fatalf("aliased paths = %v, want %v", shared, want)
	}
}
