package ir

// SummaryCache memoizes per-function summaries computed by
// interprocedural analyses ("does this function block on a
// termination signal", "what does this function's taint summary
// say", "which obligations does this function hand its callers").
// K keys one summary — usually a *Func, or a *Func paired with a
// parameter or a kind — and V is the summary itself.
//
// Recursion through the call graph is broken by a visiting set: a
// query that re-enters a key already on the stack, or that exceeds
// the depth bound, yields the analyzer-chosen cycle default, and that
// provisional answer is NOT cached, so an eventual non-cyclic query
// recomputes it properly.
type SummaryCache[K comparable, V any] struct {
	vals     map[K]V
	visiting map[K]bool
	depth    int
}

// maxSummaryDepth bounds interprocedural recursion; beyond it the
// cycle default is returned. Sixteen frames is far deeper than any
// real call chain in this module.
const maxSummaryDepth = 16

// NewSummaryCache returns an empty cache.
func NewSummaryCache[K comparable, V any]() *SummaryCache[K, V] {
	return &SummaryCache[K, V]{
		vals:     make(map[K]V),
		visiting: make(map[K]bool),
	}
}

// Memo returns the cached summary for key, computing it with compute
// on a miss. cycleDefault is returned (uncached) when the query
// cycles back into an in-progress computation or exceeds the depth
// bound.
func (c *SummaryCache[K, V]) Memo(key K, cycleDefault V, compute func() V) V {
	if v, ok := c.vals[key]; ok {
		return v
	}
	if c.visiting[key] || c.depth >= maxSummaryDepth {
		return cycleDefault
	}
	c.visiting[key] = true
	c.depth++
	v := compute()
	c.depth--
	delete(c.visiting, key)
	c.vals[key] = v
	return v
}

// Cached returns the summary stored for key without computing one.
func (c *SummaryCache[K, V]) Cached(key K) (V, bool) {
	v, ok := c.vals[key]
	return v, ok
}
