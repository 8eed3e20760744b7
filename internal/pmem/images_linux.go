package pmem

import (
	"fmt"
	"sync/atomic"
	"syscall"
	"unsafe"
)

// mapWords maps n words of private anonymous memory, which the kernel zeroes
// a page at a time at first touch, and hints that it back them with huge
// pages: an image a run writes densely then faults 2 MiB at a time, not
// 4 KiB.
func mapWords(n int) []atomic.Uint64 {
	b, err := syscall.Mmap(-1, 0, n*8, syscall.PROT_READ|syscall.PROT_WRITE, syscall.MAP_PRIVATE|syscall.MAP_ANON)
	if err != nil {
		panic(fmt.Sprintf("pmem: mapping a %d-word image: %v", n, err))
	}
	_ = syscall.Madvise(b, syscall.MADV_HUGEPAGE) // only a hint: without it, faults are smaller
	return unsafe.Slice((*atomic.Uint64)(unsafe.Pointer(&b[0])), n)
}

// unmapWords unmaps an image mapWords returned.
func unmapWords(w []atomic.Uint64) {
	if err := syscall.Munmap(unsafe.Slice((*byte)(unsafe.Pointer(&w[0])), len(w)*8)); err != nil {
		panic(fmt.Sprintf("pmem: unmapping a %d-word image: %v", len(w), err))
	}
}
