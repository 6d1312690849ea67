package disk

import (
	"bytes"
	"errors"
	"testing"
	"time"

	"histar/internal/vclock"
)

func testDisk(p Params) (*Disk, *vclock.Clock) {
	clk := &vclock.Clock{}
	if p.Sectors == 0 {
		p.Sectors = 1 << 16 // 32 MB
	}
	if p.BandwidthBytesPerSec == 0 {
		p.BandwidthBytesPerSec = 50e6
	}
	return New(p, clk), clk
}

func TestReadWriteRoundTrip(t *testing.T) {
	d, _ := testDisk(Params{})
	data := []byte("hello single-level store")
	if _, err := d.WriteAt(data, 4096); err != nil {
		t.Fatal(err)
	}
	got := make([]byte, len(data))
	if _, err := d.ReadAt(got, 4096); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, data) {
		t.Errorf("read back %q", got)
	}
}

func TestOutOfRange(t *testing.T) {
	d, _ := testDisk(Params{})
	buf := make([]byte, 16)
	if _, err := d.ReadAt(buf, d.Size()); !errors.Is(err, ErrOutOfRange) {
		t.Errorf("read past end: %v", err)
	}
	if _, err := d.WriteAt(buf, -1); !errors.Is(err, ErrOutOfRange) {
		t.Errorf("negative offset write: %v", err)
	}
}

func TestSequentialCheaperThanRandom(t *testing.T) {
	p := Params{SeekTime: 8 * time.Millisecond, RotationalLatency: 4 * time.Millisecond}
	buf := make([]byte, 8192)

	dSeq, clkSeq := testDisk(p)
	for i := int64(0); i < 100; i++ {
		dSeq.WriteAt(buf, i*8192)
	}
	seqTime := clkSeq.Now()

	dRand, clkRand := testDisk(p)
	for i := int64(0); i < 100; i++ {
		// Jump around: every write lands far from the previous head position.
		dRand.WriteAt(buf, ((i*7919)%1000)*16384)
	}
	randTime := clkRand.Now()

	if seqTime >= randTime {
		t.Errorf("sequential writes (%v) should be cheaper than random (%v)", seqTime, randTime)
	}
	if dSeq.Stats().Seeks >= dRand.Stats().Seeks {
		t.Errorf("sequential seeks=%d random seeks=%d", dSeq.Stats().Seeks, dRand.Stats().Seeks)
	}
}

func TestWriteCacheDefersPositioningCost(t *testing.T) {
	p := Params{SeekTime: 8 * time.Millisecond, RotationalLatency: 4 * time.Millisecond}
	buf := make([]byte, 4096)

	cached, clkCached := testDisk(Params{SeekTime: p.SeekTime, RotationalLatency: p.RotationalLatency, WriteCache: true})
	uncached, clkUncached := testDisk(p)
	for i := int64(0); i < 50; i++ {
		off := ((i * 13) % 50) * 65536
		cached.WriteAt(buf, off)
		uncached.WriteAt(buf, off)
	}
	if clkCached.Now() >= clkUncached.Now() {
		t.Errorf("cached writes (%v) should be cheaper before flush than uncached (%v)",
			clkCached.Now(), clkUncached.Now())
	}
	// After a flush the data is durable and readable.
	if err := cached.Flush(); err != nil {
		t.Fatal(err)
	}
	got := make([]byte, 4096)
	if _, err := cached.ReadAt(got, 0); err != nil {
		t.Fatal(err)
	}
}

func TestWriteAfterFlushWaitsARevolution(t *testing.T) {
	// A flush is a barrier: the host sees it complete before sending the
	// next write, and by then the sector after the last one written has gone
	// by.  A write that continues exactly there costs a full revolution (no
	// seek); writes destaged together still stream, and a write elsewhere
	// pays its own positioning, not the revolution on top.
	p := Params{SeekTime: 8 * time.Millisecond, RotationalLatency: 4 * time.Millisecond, WriteCache: true}
	buf := make([]byte, 4096)
	rev := 2 * p.RotationalLatency

	d, clk := testDisk(p)
	d.WriteAt(buf, 0)
	d.Flush()
	for i := int64(1); i <= 10; i++ {
		before := clk.Now()
		d.WriteAt(buf, i*4096)
		d.Flush()
		if got, want := clk.Now()-before, rev+d.transferTime(4096); got != want {
			t.Fatalf("write+flush %d at the tail cost %v, want one revolution plus transfer = %v", i, got, want)
		}
	}
	if s := d.Stats(); s.Seeks != 0 {
		t.Errorf("tail writes counted %d seeks, want 0", s.Seeks)
	}

	// Two adjacent writes under one flush: one revolution, not two.
	before := clk.Now()
	d.WriteAt(buf, 11*4096)
	d.WriteAt(buf, 12*4096)
	d.Flush()
	if got, want := clk.Now()-before, rev+2*d.transferTime(4096); got != want {
		t.Errorf("two writes under one flush cost %v, want %v", got, want)
	}

	// A read in between takes the barrier with it.
	d.ReadAt(buf, 13*4096)
	before = clk.Now()
	d.WriteAt(buf, 14*4096)
	d.Flush()
	if got, want := clk.Now()-before, d.transferTime(4096); got != want {
		t.Errorf("write after an intervening read cost %v, want transfer only = %v", got, want)
	}

	// Elsewhere: a seek, and no revolution on top of it.
	before = clk.Now()
	d.WriteAt(buf, 16<<20)
	d.Flush()
	if got, want := clk.Now()-before, p.SeekTime+p.RotationalLatency+d.transferTime(4096); got != want {
		t.Errorf("write elsewhere after a flush cost %v, want %v", got, want)
	}

	// With the cache off there is no flush to wait for: sequential
	// write-through still streams.
	wt, clkWT := testDisk(Params{SeekTime: p.SeekTime, RotationalLatency: p.RotationalLatency})
	for i := int64(0); i < 10; i++ {
		wt.WriteAt(buf, i*4096)
		wt.Flush()
	}
	if got, want := clkWT.Now(), 10*wt.transferTime(4096); got != want {
		t.Errorf("write-through sequential writes cost %v, want %v", got, want)
	}
}

func TestReadServesCachedWrites(t *testing.T) {
	d, _ := testDisk(Params{WriteCache: true})
	d.WriteAt([]byte("cached!!"), 1024)
	got := make([]byte, 8)
	d.ReadAt(got, 1024)
	if string(got) != "cached!!" {
		t.Errorf("read did not see cached write: %q", got)
	}
}

func TestCrashLosesCachedWrites(t *testing.T) {
	d, _ := testDisk(Params{WriteCache: true})
	d.WriteAt([]byte("durable!"), 0)
	d.Flush()
	d.WriteAt([]byte("volatile"), 512)
	d.Crash()
	got := make([]byte, 8)
	d.ReadAt(got, 0)
	if string(got) != "durable!" {
		t.Errorf("flushed data lost in crash: %q", got)
	}
	d.ReadAt(got, 512)
	if string(got) == "volatile" {
		t.Error("unflushed data survived the crash")
	}
}

func TestReadAheadPrefetchHits(t *testing.T) {
	p := Params{SeekTime: 8 * time.Millisecond, RotationalLatency: 4 * time.Millisecond, ReadAhead: 128 * 1024}
	d, clk := testDisk(p)
	noPrefetch, clkNo := testDisk(Params{SeekTime: p.SeekTime, RotationalLatency: p.RotationalLatency, ReadAhead: 0})

	buf := make([]byte, 1024)
	// Read a cluster of small "files" laid out near each other, skipping a
	// little between each (as a directory's files would be on disk).
	for i := int64(0); i < 50; i++ {
		d.ReadAt(buf, i*2048)
		noPrefetch.ReadAt(buf, i*2048)
	}
	if d.Stats().PrefetchHits == 0 {
		t.Error("expected prefetch hits for clustered reads")
	}
	if clk.Now() >= clkNo.Now() {
		t.Errorf("prefetch should make clustered reads faster: %v vs %v", clk.Now(), clkNo.Now())
	}
}

func TestFailNextFlush(t *testing.T) {
	d, _ := testDisk(Params{WriteCache: true})
	d.WriteAt([]byte("x"), 0)
	want := errors.New("injected")
	d.FailNextFlush(want)
	if err := d.Flush(); !errors.Is(err, want) {
		t.Errorf("Flush err = %v", err)
	}
	// The next flush succeeds.
	if err := d.Flush(); err != nil {
		t.Errorf("second flush: %v", err)
	}
}

func TestStatsAccumulate(t *testing.T) {
	d, _ := testDisk(Params{})
	d.WriteAt(make([]byte, 100), 0)
	d.ReadAt(make([]byte, 100), 0)
	s := d.Stats()
	if s.Reads != 1 || s.Writes != 1 || s.BytesRead != 100 || s.BytesWritten != 100 {
		t.Errorf("stats = %+v", s)
	}
	d.ResetStats()
	if d.Stats().Reads != 0 {
		t.Error("ResetStats did not clear")
	}
}

func TestPaperDiskParams(t *testing.T) {
	p := PaperDisk()
	if p.BandwidthBytesPerSec != 58e6 {
		t.Errorf("bandwidth = %v", p.BandwidthBytesPerSec)
	}
	if p.Sectors*SectorSize < 39e9 {
		t.Errorf("capacity too small: %d", p.Sectors*SectorSize)
	}
}
