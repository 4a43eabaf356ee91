package api_test

import (
	"bytes"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"reflect"
	"testing"

	"kubeshare/internal/kube/api"
)

var updateCorpus = flag.Bool("update", false, "rewrite the fuzz seed corpus under testdata/fuzz from the fixtures")

// TestFuzzSeedCorpusCurrent keeps FuzzObjectCodec's checked-in seeds — per
// registered kind, a fully populated object and a zero one — equal to what
// today's codec writes. Regenerate with
// `go test ./internal/kube/api -run TestFuzzSeedCorpusCurrent -update`.
func TestFuzzSeedCorpusCurrent(t *testing.T) {
	dir := filepath.Join("testdata", "fuzz", "FuzzObjectCodec")
	for i, kind := range api.RegisteredKinds() {
		for _, sh := range []shape{shapeFull, shapeNil} {
			obj, _ := api.NewObject(kind)
			n := 0
			if err := populate(reflect.ValueOf(obj).Elem(), sh, false, &n); err != nil {
				t.Fatal(err)
			}
			path := filepath.Join(dir, fmt.Sprintf("%s-%d", kind, sh))
			want := fmt.Sprintf("go test fuzz v1\nbyte(%q)\n[]byte(%q)\n", rune(i), obj.AppendBinary(nil))
			if *updateCorpus {
				if err := os.MkdirAll(dir, 0o755); err != nil {
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

// FuzzObjectCodec decodes arbitrary bytes as each registered kind (chosen by
// the first argument), through ResetCopy as the store does. The outcome is an
// error, or an object whose encoding decodes back to an object with the same
// encoding, consumed exactly — never a panic. Decoding with Reset instead
// ends the same way, and the ResetCopy object owns its bytes: scribbling over
// its input afterwards changes nothing.
func FuzzObjectCodec(f *testing.F) {
	kinds := api.RegisteredKinds()
	f.Fuzz(func(t *testing.T, k byte, data []byte) {
		kind := kinds[int(k)%len(kinds)]
		obj, _ := api.NewObject(kind)
		in := bytes.Clone(data)
		var d api.Dec
		d.ResetCopy(in)
		obj.DecodeBinary(&d)
		clear(in)
		plain, _ := api.NewObject(kind)
		var p api.Dec
		p.Reset(data)
		plain.DecodeBinary(&p)
		if d.Err() != p.Err() || d.Len() != p.Len() {
			t.Fatalf("%s: ResetCopy ended at err %v with %d left, Reset at err %v with %d left", kind, d.Err(), d.Len(), p.Err(), p.Len())
		}
		if d.Err() != nil {
			if d.Len() != 0 {
				t.Fatalf("%s: %d bytes still readable after %v", kind, d.Len(), d.Err())
			}
			return
		}
		enc := obj.AppendBinary(nil)
		if encPlain := plain.AppendBinary(nil); !bytes.Equal(enc, encPlain) {
			t.Fatalf("%s: ResetCopy and Reset decode to different objects:\n%q\n%q", kind, enc, encPlain)
		}
		again, _ := api.NewObject(kind)
		d.ResetCopy(enc)
		again.DecodeBinary(&d)
		if d.Err() != nil || d.Len() != 0 {
			t.Fatalf("%s: re-decode of %d encoded bytes: err %v, %d left over", kind, len(enc), d.Err(), d.Len())
		}
		if enc2 := again.AppendBinary(nil); !bytes.Equal(enc, enc2) {
			t.Fatalf("%s: decode → encode is not a fixpoint:\n%q\n%q", kind, enc, enc2)
		}
	})
}
