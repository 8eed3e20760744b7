package pmem

import (
	"os"
	"runtime"
	"strconv"
	"strings"
	"testing"
)

// residentBytes reads the process's resident set size from /proc/self/statm.
func residentBytes(t *testing.T) int64 {
	t.Helper()
	b, err := os.ReadFile("/proc/self/statm")
	if err != nil {
		t.Skipf("no resident set size on this platform: %v", err)
	}
	f := strings.Fields(string(b))
	if len(f) < 2 {
		t.Fatalf("/proc/self/statm reads %q", b)
	}
	pages, err := strconv.ParseInt(f[1], 10, 64)
	if err != nil {
		t.Fatal(err)
	}
	return pages * int64(os.Getpagesize())
}

// TestNewHeapResidentFollowsUse pins what a heap costs in memory: building
// one of 2^25 words (256 MiB an image) and then carving and writing ~1k
// words of it, each line written back, grows the process's resident set by
// under 16 MiB, tracked or not: 2 and 4 MiB on Linux. Where the runtime
// allocated the images, the tracked heap's construction alone grew it by
// 256 MiB, clearing the memory the untracked heap's collection had freed.
// The bound leaves room for the huge pages the images fault in and for the
// collector.
func TestNewHeapResidentFollowsUse(t *testing.T) {
	const words, written, bound = 1 << 25, 1024, 16 << 20
	for _, tracked := range []bool{false, true} {
		runtime.GC()
		before := residentBytes(t)
		h := NewHeap(Config{Words: words, Procs: 2, Tracked: tracked})
		if grew := residentBytes(t) - before; grew >= bound {
			t.Fatalf("tracked=%v: NewHeap of %d words grew the resident set by %d MiB, want < %d MiB",
				tracked, words, grew>>20, bound>>20)
		}
		p := h.Proc(0)
		a := p.Alloc(written)
		for i := Addr(0); i < written; i++ {
			p.Store(a+i, uint64(i)+1)
			if i%WordsPerLine == WordsPerLine-1 {
				p.PWB(a + i)
			}
		}
		p.PSync()
		if grew := residentBytes(t) - before; grew >= bound {
			t.Fatalf("tracked=%v: writing %d words of a %d-word heap grew the resident set by %d MiB, want < %d MiB",
				tracked, written, words, grew>>20, bound>>20)
		}
		t.Logf("tracked=%v: resident set grew %.1f MiB", tracked, float64(residentBytes(t)-before)/(1<<20))
		if got := h.ReadVolatile(a + written - 1); got != written {
			t.Fatalf("tracked=%v: last word reads %d, want %d", tracked, got, written)
		}
	}
}

// TestDroppedHeapsUnmap pins that no image outlives its owner: 64 heaps of
// 2^25 words, untracked, tracked and dropped, and tracked and released to
// the pool, built one after another and touched, are all unmapped once the
// collector has run a few times and dropped the pool.
func TestDroppedHeapsUnmap(t *testing.T) {
	for i := range 64 {
		h := NewHeap(Config{Words: 1 << 25, Tracked: i%2 == 1})
		p := h.Proc(0)
		p.Store(p.Alloc(WordsPerLine), uint64(i)+1)
		if i%4 == 3 {
			h.Release()
		}
	}
	for gcs := 0; mapped.Load() != 0; gcs++ {
		if gcs == 500 {
			t.Fatalf("%d images still mapped after %d collections", mapped.Load(), gcs)
		}
		runtime.GC()
		runtime.Gosched() // the cleanups run on their own goroutine
	}
}
