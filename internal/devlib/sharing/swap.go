package sharing

import (
	"fmt"
	"sort"
	"time"

	"kubeshare/internal/gpusim"
	"kubeshare/internal/sim"
)

// Memory over-commitment support (the paper's §6 discussion of
// GPUswap-style virtual memory): when devlib.Config.MemOvercommit is
// enabled, the sum of the containers' gpu_mem shares on a device may exceed
// 1. Container memory becomes virtual; the token strategy's memory broker
// keeps track of which containers' working sets are resident, and swaps cold
// sets out to host memory (paying PCIe transfer time) when the next token
// holder's set must be brought in. This trades GPU memory capacity for
// handoff latency — exactly the risk the paper calls out. Only Token swaps:
// swapping happens at token handoff, which needs a gate, and the frontend
// asserts *Token when devlib.Config.MemOvercommit is set.

// swapState is the per-device residency bookkeeping inside a Token.
type swapState struct {
	capacity int64
	// virtual is each client's allocated (virtual) bytes; resident is the
	// subset currently on the device.
	virtual  map[string]int64
	resident map[string]int64
	lastUse  map[string]time.Duration
	// swapped accumulates total swapped bytes (observability/ablation).
	swapped int64
}

func newSwapState(capacity int64) *swapState {
	return &swapState{
		capacity: capacity,
		virtual:  make(map[string]int64),
		resident: make(map[string]int64),
		lastUse:  make(map[string]time.Duration),
	}
}

// EnableSwap turns on the memory broker for this device. capacity is the
// physical device memory; swaps move at the device's host↔device copy
// bandwidth, gpusim.CopyBandwidth.
func (m *Token) EnableSwap(capacity int64) {
	if m.swap == nil {
		m.swap = newSwapState(capacity)
	}
}

// ResidentBytes returns a client's currently resident bytes.
func (m *Token) ResidentBytes(id string) int64 {
	if m.swap == nil {
		return 0
	}
	return m.swap.resident[id]
}

// SetVirtualUsage records a client's allocated virtual bytes. Growth beyond
// current residency becomes resident lazily at the next EnsureResident;
// shrinking frees residency immediately.
func (m *Token) SetVirtualUsage(id string, bytes int64) error {
	if m.swap == nil {
		return fmt.Errorf("sharing: swap not enabled on %s", m.uuid)
	}
	if bytes > m.swap.capacity {
		return fmt.Errorf("sharing: client %s working set %d exceeds device capacity %d",
			id, bytes, m.swap.capacity)
	}
	m.swap.virtual[id] = bytes
	if m.swap.resident[id] > bytes {
		m.swap.resident[id] = bytes
	}
	if bytes == 0 {
		delete(m.swap.virtual, id)
		delete(m.swap.resident, id)
	}
	return nil
}

// dropResidency releases a departing client's memory without transfer cost
// (its contents are discarded, not swapped).
func (m *Token) dropResidency(id string) {
	if m.swap == nil {
		return
	}
	delete(m.swap.virtual, id)
	delete(m.swap.resident, id)
	delete(m.swap.lastUse, id)
}

// EnsureResident blocks p until id's full virtual set is resident, evicting
// the least-recently-used other clients as needed and sleeping for the PCIe
// transfer time of everything moved. It must be called while id holds the
// token (the device is quiescent for everyone else).
func (m *Token) EnsureResident(p *sim.Proc, id string) error {
	s := m.swap
	if s == nil {
		return nil
	}
	now := p.Env().Now()
	s.lastUse[id] = now
	need := s.virtual[id] - s.resident[id]
	if need <= 0 {
		return nil
	}
	var used int64
	for _, r := range s.resident {
		used += r
	}
	free := s.capacity - used
	var moved int64
	if free < need {
		// Evict least-recently-used other clients until the set fits.
		type victim struct {
			id   string
			last time.Duration
		}
		var victims []victim
		for vid := range s.resident {
			if vid != id && s.resident[vid] > 0 {
				victims = append(victims, victim{vid, s.lastUse[vid]})
			}
		}
		sort.Slice(victims, func(i, j int) bool {
			if victims[i].last != victims[j].last {
				return victims[i].last < victims[j].last
			}
			return victims[i].id < victims[j].id
		})
		for _, v := range victims {
			if free >= need {
				break
			}
			out := s.resident[v.id]
			free += out
			moved += out // swap-out transfer
			s.resident[v.id] = 0
		}
		if free < need {
			return fmt.Errorf("sharing: cannot make %d bytes resident for %s (capacity %d)",
				s.virtual[id], id, s.capacity)
		}
	}
	moved += need // swap-in transfer
	s.resident[id] = s.virtual[id]
	s.swapped += moved
	if moved > 0 {
		p.Sleep(time.Duration(float64(moved) / gpusim.CopyBandwidth * float64(time.Second)))
	}
	return nil
}
