package deviceplugin

import (
	"errors"
	"strings"
	"testing"

	"kubeshare/internal/gpusim"
	"kubeshare/internal/kube/api"
	"kubeshare/internal/sim"
)

type fakePlugin struct {
	name    string
	devices []Device
	fail    bool
}

func (f *fakePlugin) ResourceName() string  { return f.name }
func (f *fakePlugin) ListDevices() []Device { return f.devices }
func (f *fakePlugin) Allocate(ids []string) (AllocateResponse, error) {
	if f.fail {
		return AllocateResponse{}, errors.New("vendor failure")
	}
	return AllocateResponse{Env: map[string]string{"IDS": strings.Join(ids, ",")}}, nil
}

func devices(ids ...string) []Device {
	out := make([]Device, len(ids))
	for i, id := range ids {
		out[i] = Device{ID: id, Healthy: true}
	}
	return out
}

func TestRegisterAndCapacity(t *testing.T) {
	m := NewManager()
	if err := m.Register(&fakePlugin{name: "x/dev", devices: devices("a", "b", "c")}); err != nil {
		t.Fatal(err)
	}
	if got := m.Capacity()["x/dev"]; got != 3 {
		t.Fatalf("capacity = %d", got)
	}
	if err := m.Register(&fakePlugin{name: "x/dev"}); err == nil {
		t.Fatal("duplicate registration accepted")
	}
}

func TestUnhealthyDevicesExcluded(t *testing.T) {
	m := NewManager()
	m.Register(&fakePlugin{name: "x/dev", devices: []Device{{ID: "a", Healthy: true}, {ID: "b", Healthy: false}}})
	if got := m.Capacity()["x/dev"]; got != 1 {
		t.Fatalf("capacity = %d", got)
	}
}

func TestAllocateAndFree(t *testing.T) {
	m := NewManager()
	m.Register(&fakePlugin{name: "x/dev", devices: devices("b", "a")})
	resp, err := m.Allocate("pod1", "x/dev", 1)
	if err != nil {
		t.Fatal(err)
	}
	// Deterministic first-free in sorted order.
	if resp.Env["IDS"] != "a" {
		t.Fatalf("allocated %q, want a", resp.Env["IDS"])
	}
	// "a" stays pod1's: the next consumer gets "b", and then none is left.
	if resp, err := m.Allocate("pod2", "x/dev", 1); err != nil || resp.Env["IDS"] != "b" {
		t.Fatalf("second allocation = %q, %v; want b", resp.Env["IDS"], err)
	}
	// Capacity stays constant; free pool shrinks.
	if m.Capacity()["x/dev"] != 2 {
		t.Fatal("capacity changed by allocation")
	}
	if _, err := m.Allocate("pod3", "x/dev", 1); err == nil {
		t.Fatal("over-allocation succeeded")
	}
	m.Free("pod1")
	if resp, err := m.Allocate("pod3", "x/dev", 1); err != nil || resp.Env["IDS"] != "a" {
		t.Fatalf("allocate after free = %q, %v; want pod1's a", resp.Env["IDS"], err)
	}
}

func TestAllocateErrors(t *testing.T) {
	m := NewManager()
	m.Register(&fakePlugin{name: "x/dev", devices: devices("a")})
	if _, err := m.Allocate("p", "y/dev", 1); err == nil {
		t.Fatal("unknown resource accepted")
	}
	if _, err := m.Allocate("p", "x/dev", 0); err == nil {
		t.Fatal("zero-count allocation accepted")
	}
}

func TestVendorFailureReturnsDevices(t *testing.T) {
	m := NewManager()
	m.Register(&fakePlugin{name: "x/dev", devices: devices("a", "b"), fail: true})
	if _, err := m.Allocate("p", "x/dev", 2); err == nil {
		t.Fatal("vendor failure not propagated")
	}
	// Devices must be back in the pool.
	m.plugins["x/dev"].plugin.(*fakePlugin).fail = false
	if _, err := m.Allocate("p", "x/dev", 2); err != nil {
		t.Fatalf("devices leaked after vendor failure: %v", err)
	}
}

func TestFreeUnknownConsumerIsNoop(t *testing.T) {
	m := NewManager()
	m.Register(&fakePlugin{name: "x/dev", devices: devices("a")})
	m.Free("ghost")
	if m.Capacity()["x/dev"] != 1 {
		t.Fatal("capacity corrupted")
	}
}

func TestNvidiaPluginVisibleDevices(t *testing.T) {
	env := sim.NewEnv()
	d0 := gpusim.NewDevice(env, gpusim.Config{Index: 0, NodeName: "n"})
	d1 := gpusim.NewDevice(env, gpusim.Config{Index: 1, NodeName: "n"})
	p := NewNvidiaPlugin([]*gpusim.Device{d0, d1})
	if p.ResourceName() != api.ResourceGPU {
		t.Fatalf("resource = %s", p.ResourceName())
	}
	list := p.ListDevices()
	if len(list) != 2 || !list[0].Healthy {
		t.Fatalf("list = %v", list)
	}
	resp, err := p.Allocate([]string{d1.UUID(), d0.UUID()})
	if err != nil {
		t.Fatal(err)
	}
	want := d1.UUID() + "," + d0.UUID()
	if resp.Env[EnvVisibleDevices] != want {
		t.Fatalf("env = %q, want %q", resp.Env[EnvVisibleDevices], want)
	}
	if _, err := p.Allocate([]string{"GPU-bogus"}); err == nil {
		t.Fatal("unknown UUID accepted")
	}
}

func TestManagerWithNvidiaEndToEnd(t *testing.T) {
	env := sim.NewEnv()
	var devs []*gpusim.Device
	for i := 0; i < 4; i++ {
		devs = append(devs, gpusim.NewDevice(env, gpusim.Config{Index: i, NodeName: "n"}))
	}
	m := NewManager()
	if err := m.Register(NewNvidiaPlugin(devs)); err != nil {
		t.Fatal(err)
	}
	if m.Capacity()[api.ResourceGPU] != 4 {
		t.Fatal("wrong GPU capacity")
	}
	resp, err := m.Allocate("pod1", api.ResourceGPU, 2)
	if err != nil {
		t.Fatal(err)
	}
	uuids := strings.Split(resp.Env[EnvVisibleDevices], ",")
	if len(uuids) != 2 {
		t.Fatalf("visible = %v", uuids)
	}
}
