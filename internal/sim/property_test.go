package sim

import (
	"math/rand"
	"testing"
	"testing/quick"
	"time"
)

// TestPropertyEventOrdering: for any set of delays, callbacks fire in
// nondecreasing time order, and FIFO among equal timestamps.
func TestPropertyEventOrdering(t *testing.T) {
	f := func(delays []uint16) bool {
		env := NewEnv()
		type firing struct {
			at  time.Duration
			seq int
		}
		var fired []firing
		for i, d := range delays {
			i := i
			at := time.Duration(d) * time.Millisecond
			env.At(at, func() { fired = append(fired, firing{env.Now(), i}) })
		}
		env.Run()
		if len(fired) != len(delays) {
			return false
		}
		for i := 1; i < len(fired); i++ {
			if fired[i].at < fired[i-1].at {
				return false
			}
			if fired[i].at == fired[i-1].at && fired[i].seq < fired[i-1].seq {
				return false // FIFO violated among ties
			}
		}
		for i, f := range fired {
			if f.at != time.Duration(delays[f.seq])*time.Millisecond {
				_ = i
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

// TestPropertyQueueConservation: every item put is either consumed exactly
// once or still buffered; FIFO order is preserved per queue.
func TestPropertyQueueConservation(t *testing.T) {
	f := func(nItems uint8, nConsumers uint8) bool {
		n := int(nItems % 64)
		c := int(nConsumers%8) + 1
		env := NewEnv()
		q := NewQueue[int](env)
		var got []int
		for i := 0; i < c; i++ {
			env.Go("c", func(p *Proc) {
				for {
					v, ok := q.Get(p)
					if !ok {
						return
					}
					got = append(got, v)
				}
			})
		}
		env.Go("p", func(p *Proc) {
			for i := 0; i < n; i++ {
				p.Sleep(time.Millisecond)
				q.Put(i)
			}
			q.Close()
		})
		env.Run()
		if len(got)+q.Len() != n {
			return false
		}
		// Items are produced strictly one per millisecond, so global
		// consumption order must equal production order.
		for i, v := range got {
			if v != i {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Fatal(err)
	}
}

// TestPropertyDeterministicReplay: identical programs produce identical
// traces, event for event.
func TestPropertyDeterministicReplay(t *testing.T) {
	program := func(seed int64) []string {
		rng := rand.New(rand.NewSource(seed))
		env := NewEnv()
		var trace []string
		q := NewQueue[string](env)
		ev := NewEvent(env)
		for i := 0; i < 10; i++ {
			name := string(rune('A' + i))
			d := time.Duration(rng.Intn(20)) * time.Millisecond
			env.Go(name, func(p *Proc) {
				p.Sleep(d)
				q.Put(name)
				p.Sleep(5 * time.Millisecond)
				if v := ev.Value(); v != nil {
					trace = append(trace, "ev:"+v.(string))
				}
			})
		}
		env.Go("collector", func(p *Proc) {
			for i := 0; i < 10; i++ {
				v, _ := q.Get(p)
				trace = append(trace, v)
			}
			ev.Trigger("fin")
		})
		env.Run()
		return trace
	}
	f := func(seed int64) bool {
		a, b := program(seed), program(seed)
		if len(a) != len(b) {
			return false
		}
		for i := range a {
			if a[i] != b[i] {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Fatal(err)
	}
}
