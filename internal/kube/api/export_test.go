package api

import "sort"

// RegisteredKinds lists the kind registry for the external tests.
func RegisteredKinds() []string {
	var out []string
	for k := range kindRegistry {
		out = append(out, k)
	}
	sort.Strings(out)
	return out
}
