// Package detmap is the sanctioned way to iterate a map on a
// deterministic-output path. Go randomizes map iteration order on every
// run; any map range whose order can leak into a fingerprint, rendered
// report or CSV is a reproducibility bug. The maporder analyzer
// (internal/lint) flags such ranges and recognizes this package as the
// fix: range over SortedKeys(m) instead of m.
package detmap

import (
	"cmp"
	"sort"
)

// SortedKeys returns m's keys in ascending order. Ranging over the
// returned slice visits the map deterministically:
//
//	for _, k := range detmap.SortedKeys(m) {
//		render(k, m[k])
//	}
//
//lint:allow deadapi(the sorted-iteration helper the maporder analyzer tells callers to use)
func SortedKeys[K cmp.Ordered, V any](m map[K]V) []K {
	out := make([]K, 0, len(m))
	for k := range m {
		out = append(out, k)
	}
	sort.Slice(out, func(i, j int) bool { return out[i] < out[j] })
	return out
}
