package core

import (
	"testing"

	"kubeshare/internal/devlib/sharing"
	"kubeshare/internal/kube/api"
)

// FuzzValidateSharePodSpec feeds arbitrary share quantities to the SharePod
// admission validator. The outcome is an error, or a spec whose Algorithm 1
// request is finite and in range, names exactly one memory form and a known
// sharing mode, and fits an empty device — so nothing admitted can leave a
// device's residuals NaN or out of [0,1]. Seeds live in
// testdata/fuzz/FuzzValidateSharePodSpec (nan-request-and-mem is the spec
// the reject-style checks used to admit).
func FuzzValidateSharePodSpec(f *testing.F) {
	f.Fuzz(func(t *testing.T, request, limit, mem float64, memBytes int64, mode string) {
		sp := &SharePod{
			ObjectMeta: api.ObjectMeta{Name: "sp"},
			Spec: SharePodSpec{
				Pod:        api.PodSpec{Containers: []api.Container{{Name: "c", Image: "i"}}},
				GPURequest: request, GPULimit: limit, GPUMem: mem, GPUMemBytes: memBytes, SharingMode: mode,
			},
		}
		if ValidateSharePod(sp) != nil {
			return
		}
		r := RequestOf(sp)
		if !(r.Util > 0 && r.Util <= 1) || !(r.Mem >= 0 && r.Mem <= 1) || r.MemBytes < 0 || r.MemBytes > DeviceMemBytes {
			t.Fatalf("admitted %+v: request out of range", r)
		}
		if (r.Mem > 0) == (r.MemBytes > 0) {
			t.Fatalf("admitted %+v: want exactly one memory form", r)
		}
		if !(limit == 0 || (limit >= request && limit <= 1)) {
			t.Fatalf("admitted limit %v with request %v", limit, request)
		}
		if _, err := sharing.ParseMode(mode); err != nil {
			t.Fatalf("admitted sharing mode %q: %v", mode, err)
		}
		d := NewDeviceState("d", "n")
		if !d.Fits(r) {
			t.Fatalf("admitted %+v does not fit an empty device", r)
		}
		d.Place(r)
		if !(d.Util >= 0 && d.Util < 1) || !(d.Mem >= 0 && d.Mem <= 1) {
			t.Fatalf("placing %+v left residuals util %v mem %v", r, d.Util, d.Mem)
		}
	})
}
