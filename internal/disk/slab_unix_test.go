//go:build unix

package disk

import (
	"bytes"
	"os"
	"runtime"
	"strconv"
	"strings"
	"testing"
	"time"

	"histar/internal/vclock"
)

// TestSlabIsOffTheHeap holds mapSlab's point: a 256 MiB disk (the benchmark's
// size) adds almost nothing to the Go heap, so the collector neither scans
// it nor paces on it, and its last sector still reads back what was written.
func TestSlabIsOffTheHeap(t *testing.T) {
	var before, after runtime.MemStats
	runtime.GC()
	runtime.ReadMemStats(&before)
	d := New(Params{Sectors: (256 << 20) / SectorSize, WriteCache: true}, &vclock.Clock{})
	runtime.ReadMemStats(&after)
	if grown := int64(after.HeapSys) - int64(before.HeapSys); grown > 16<<20 {
		t.Fatalf("a 256 MiB disk grew the heap by %d MiB", grown>>20)
	}
	last := d.Size() - SectorSize
	want := bytes.Repeat([]byte{0xa5}, SectorSize)
	if _, err := d.WriteAt(want, last); err != nil {
		t.Fatal(err)
	}
	if err := d.Flush(); err != nil {
		t.Fatal(err)
	}
	got := make([]byte, SectorSize)
	if _, err := d.ReadAt(got, last); err != nil || !bytes.Equal(got, want) {
		t.Fatalf("last sector read back %x…, %v", got[:4], err)
	}
}

// TestSlabIsUnmappedWithItsDisk drops sixteen 256 MiB disks and requires the
// process's address space not to keep them: each mapping goes with its Disk.
// It reads the mapped size from /proc, and skips where there is none.
func TestSlabIsUnmappedWithItsDisk(t *testing.T) {
	mapped := func() int64 {
		b, err := os.ReadFile("/proc/self/statm")
		if err != nil {
			t.Skip("no /proc/self/statm:", err)
		}
		pages, err := strconv.ParseInt(strings.Fields(string(b))[0], 10, 64)
		if err != nil {
			t.Fatal(err)
		}
		return pages * int64(os.Getpagesize())
	}
	before := mapped()
	for i := 0; i < 16; i++ {
		d := New(Params{Sectors: (256 << 20) / SectorSize}, &vclock.Clock{})
		if _, err := d.WriteAt(make([]byte, SectorSize), int64(i)*SectorSize); err != nil {
			t.Fatal(err)
		}
		runtime.GC()
	}
	// Finalizers run on their own goroutine after a collection finds the
	// disk unreachable; give them a bounded while.
	for deadline := time.Now().Add(5 * time.Second); mapped()-before > 1<<30 && time.Now().Before(deadline); {
		runtime.GC()
		time.Sleep(10 * time.Millisecond)
	}
	if grown := mapped() - before; grown > 1<<30 {
		t.Fatalf("sixteen dropped 256 MiB disks left %d MiB mapped", grown>>20)
	}
}
