package api

import (
	"errors"
	"fmt"
)

// The kind registry maps kind names to factories producing zero values of
// the concrete object type. The store's durability layer (WAL records and
// checkpoints) serializes objects as (kind, binary form) pairs (binary.go);
// decoding them back into typed objects needs a way to construct the right
// concrete type from the kind string alone. Built-in kinds register here; custom resources
// (SharePod, SharePodSet, VGPU) register from their defining package's
// init, exactly like scheme registration in Kubernetes.
var kindRegistry = map[string]func() Object{}

// RegisterKind installs a factory for a kind. Registering the same kind
// twice panics: two packages claiming one kind is a wiring bug that would
// otherwise surface as silently misdecoded store state.
func RegisterKind(kind string, factory func() Object) {
	if kind == "" || factory == nil {
		panic("api: RegisterKind with empty kind or nil factory")
	}
	if _, dup := kindRegistry[kind]; dup {
		panic(fmt.Sprintf("api: kind %q registered twice", kind))
	}
	kindRegistry[kind] = factory
}

// ErrUnregisteredKind is NewObject's error.
var ErrUnregisteredKind = errors.New("api: kind not registered")

// NewObject returns a zero value of the kind's concrete type, or
// ErrUnregisteredKind (a WAL or checkpoint holding such a kind cannot be
// restored: the package defining it was not linked in, and the store's Crash
// reports that instead of discarding the data).
func NewObject(kind string) (Object, error) {
	factory, ok := kindRegistry[kind]
	if !ok {
		return nil, fmt.Errorf("%w: %q", ErrUnregisteredKind, kind)
	}
	return factory(), nil
}

func init() {
	RegisterKind("Pod", func() Object { return &Pod{} })
	RegisterKind("Node", func() Object { return &Node{} })
	RegisterKind(KindEvent, func() Object { return &Event{} })
	RegisterKind("ReplicationController", func() Object { return &ReplicationController{} })
}
