// Firing and non-firing cases for the maprange analyzer. The test
// runner type-checks this package under a deterministic-core import
// path; each `// want` comment asserts a finding on its line.
package maprange

import "sort"

var m = map[string]int{"a": 1, "b": 2}

// fires: plain iteration, order escapes through the side effect.
func fires() int {
	n := 0
	for _, v := range m { // want `range over map`
		n ^= n<<3 + v
	}
	return n
}

// firesCollectNoSort: collecting keys is not enough — nothing sorts
// them before they are used.
func firesCollectNoSort() []string {
	keys := make([]string, 0, len(m))
	for k := range m { // want `range over map`
		keys = append(keys, k)
	}
	return keys
}

// okCollectThenSort is the recognised safe shape: append-only body,
// then a sort call on the collected slice in the same block.
func okCollectThenSort() []string {
	keys := make([]string, 0, len(m))
	for k := range m {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	return keys
}

// okCollectThenSortSlice: sort.Slice also counts.
func okCollectThenSortSlice() []int {
	vals := make([]int, 0, len(m))
	for _, v := range m {
		vals = append(vals, v)
	}
	sort.Slice(vals, func(i, j int) bool { return vals[i] < vals[j] })
	return vals
}

// okAllowed: an explicit, reasoned allow suppresses the finding.
func okAllowed() int {
	n := 0
	//lint:allow maprange(integer xor-sum is commutative, order cannot escape)
	for _, v := range m {
		n ^= v
	}
	return n
}

// staleAllowed: an allow with no finding to suppress is itself an
// error. A //lint:allow comment runs to the end of its line, so the
// expectation rides in a block comment before it.
func staleAllowed() []string {
	keys := make([]string, 0, len(m))
	/* want `stale //lint:allow maprange` */ //lint:allow maprange(collect-then-sort needs no allow)
	for k := range m {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	return keys
}

// okSliceRange: ranging over a slice is ordered and fine.
func okSliceRange(xs []int) int {
	n := 0
	for _, x := range xs {
		n += x
	}
	return n
}
