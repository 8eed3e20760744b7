//go:build !linux

package pmem

import "sync/atomic"

// mapWords allocates n zero words where no anonymous mapping is used: the
// runtime clears them, and the garbage collector frees them.
func mapWords(n int) []atomic.Uint64 { return make([]atomic.Uint64, n) }

// unmapWords leaves w to the garbage collector.
func unmapWords([]atomic.Uint64) {}
