package store

import "reflect"

// PostingSets maps every posting set of the label index, named
// "kind key=value", to the set's identity, so a test can tell a write that
// left the index alone from one that rebuilt equal sets.
func PostingSets(s *Store) map[string]uintptr {
	s.mu.RLock()
	defer s.mu.RUnlock()
	out := map[string]uintptr{}
	for kind, b := range s.kinds {
		for k, vals := range b.byLabel {
			for v, set := range vals {
				out[kind+" "+k+"="+v] = reflect.ValueOf(set).Pointer()
			}
		}
	}
	return out
}
