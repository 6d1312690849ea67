package disk

import (
	"bytes"
	"errors"
	"testing"

	"histar/internal/vclock"
)

func testFaultDisk(t *testing.T) (*FaultDisk, *Disk) {
	t.Helper()
	d := New(Params{Sectors: 1 << 10}, &vclock.Clock{})
	return NewFaultDisk(d), d
}

func TestFaultDiskPassThrough(t *testing.T) {
	f, d := testFaultDisk(t)
	msg := []byte("pass through intact")
	if _, err := f.WriteAt(msg, 4096); err != nil {
		t.Fatal(err)
	}
	if err := f.Flush(); err != nil {
		t.Fatal(err)
	}
	got := make([]byte, len(msg))
	if _, err := f.ReadAt(got, 4096); err != nil || !bytes.Equal(got, msg) {
		t.Fatalf("read back %q, %v", got, err)
	}
	if f.BytesWritten() != int64(len(msg)) {
		t.Errorf("BytesWritten = %d", f.BytesWritten())
	}
	if bounds := f.WriteBounds(); len(bounds) != 1 || bounds[0] != int64(len(msg)) {
		t.Errorf("WriteBounds = %v", bounds)
	}
	if f.Size() != d.Size() {
		t.Errorf("Size = %d, want %d", f.Size(), d.Size())
	}
}

func TestFaultDiskTornWriteKeepsWholeSectors(t *testing.T) {
	f, d := testFaultDisk(t)
	payload := bytes.Repeat([]byte{0xaa}, 4*SectorSize)
	f.Arm(3*SectorSize+100, FaultTorn) // crash 100 bytes into the 4th sector
	if _, err := f.WriteAt(payload, 0); !errors.Is(err, ErrFault) {
		t.Fatalf("straddling write: err=%v", err)
	}
	if !f.Tripped() {
		t.Fatal("fault should have tripped")
	}
	got := make([]byte, len(payload))
	if _, err := d.ReadAt(got, 0); err != nil {
		t.Fatal(err)
	}
	want := append(bytes.Repeat([]byte{0xaa}, 3*SectorSize), make([]byte, SectorSize)...)
	if !bytes.Equal(got, want) {
		t.Error("torn write should persist exactly three whole sectors")
	}
}

func TestFaultDiskOmitDropsWholeWrite(t *testing.T) {
	f, d := testFaultDisk(t)
	payload := bytes.Repeat([]byte{0xbb}, 2*SectorSize)
	f.Arm(SectorSize, FaultOmit)
	if _, err := f.WriteAt(payload, 0); !errors.Is(err, ErrFault) {
		t.Fatalf("err=%v", err)
	}
	got := make([]byte, len(payload))
	if _, err := d.ReadAt(got, 0); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, make([]byte, len(payload))) {
		t.Error("omitted write should leave no bytes behind")
	}
}

func TestFaultDiskFlipCorruptsFinalSector(t *testing.T) {
	f, d := testFaultDisk(t)
	payload := bytes.Repeat([]byte{0xcc}, 3*SectorSize)
	f.Arm(3*SectorSize-1, FaultFlip) // crash just before the write completes
	if _, err := f.WriteAt(payload, 0); !errors.Is(err, ErrFault) {
		t.Fatalf("err=%v", err)
	}
	got := make([]byte, 3*SectorSize)
	if _, err := d.ReadAt(got, 0); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got[:SectorSize], payload[:SectorSize]) {
		t.Error("intact prefix should persist")
	}
	diff := 0
	for i := SectorSize; i < 2*SectorSize; i++ {
		if got[i] != payload[i] {
			diff++
		}
	}
	if diff != 1 {
		t.Errorf("exactly one byte of the final written sector should differ, %d do", diff)
	}
	if !bytes.Equal(got[2*SectorSize:], make([]byte, SectorSize)) {
		t.Error("sector past the crash point should be untouched")
	}
}

func TestFaultDiskFlipSeededReproducible(t *testing.T) {
	// The same seed must produce byte-identical corruption, and the damage
	// must land inside the final written sector.
	run := func(seed int64) []byte {
		f, d := testFaultDisk(t)
		f.SetFlipSeed(seed)
		payload := bytes.Repeat([]byte{0xcc}, 2*SectorSize)
		f.Arm(2*SectorSize-1, FaultFlip)
		if _, err := f.WriteAt(payload, 0); !errors.Is(err, ErrFault) {
			t.Fatalf("err=%v", err)
		}
		got := make([]byte, 2*SectorSize)
		if _, err := d.ReadAt(got, 0); err != nil {
			t.Fatal(err)
		}
		return got
	}
	a, b := run(42), run(42)
	if !bytes.Equal(a, b) {
		t.Error("same seed should corrupt identically")
	}
	diff := 0
	for i := 0; i < SectorSize; i++ {
		if a[i] != 0xcc {
			diff++
		}
	}
	if diff != 1 {
		t.Errorf("seeded flip should corrupt exactly one byte of the final written sector, corrupted %d", diff)
	}
	if c := run(43); bytes.Equal(a, c) {
		t.Error("different seeds should corrupt differently")
	}
}

func TestRotBitsDeterministicAndContained(t *testing.T) {
	region := Region{Off: 4096, Len: 2048}
	run := func(seed int64) []byte {
		f, d := testFaultDisk(t)
		clean := bytes.Repeat([]byte{0x5a}, 8192)
		if _, err := d.WriteAt(clean, 0); err != nil {
			t.Fatal(err)
		}
		if err := f.RotBits(region, 5, seed); err != nil {
			t.Fatal(err)
		}
		got := make([]byte, 8192)
		if _, err := d.ReadAt(got, 0); err != nil {
			t.Fatal(err)
		}
		return got
	}
	a, b := run(7), run(7)
	if !bytes.Equal(a, b) {
		t.Error("same seed must rot identically")
	}
	flipped := 0
	for i, v := range a {
		if v != 0x5a {
			flipped++
			if int64(i) < region.Off || int64(i) >= region.Off+region.Len {
				t.Fatalf("rot escaped region: byte %d", i)
			}
		}
	}
	if flipped == 0 || flipped > 5 {
		t.Errorf("expected 1..5 damaged bytes, got %d", flipped)
	}
	// Rot must not count as workload writes: crash points stay stable.
	f, _ := testFaultDisk(t)
	if err := f.RotBits(region, 5, 7); err != nil {
		t.Fatal(err)
	}
	if f.BytesWritten() != 0 || len(f.WriteBounds()) != 0 {
		t.Error("rot injection must bypass write accounting")
	}
}

func TestArmRotDamagesBetweenOperations(t *testing.T) {
	f, d := testFaultDisk(t)
	clean := bytes.Repeat([]byte{0x33}, 4096)
	if _, err := d.WriteAt(clean, 0); err != nil {
		t.Fatal(err)
	}
	f.ArmRot(Region{Off: 0, Len: 4096}, 2, 99)
	// Each op takes a dose of rot first; reads and writes both count.
	buf := make([]byte, 64)
	if _, err := f.ReadAt(buf, 2048); err != nil {
		t.Fatal(err)
	}
	got := make([]byte, 4096)
	if _, err := d.ReadAt(got, 0); err != nil {
		t.Fatal(err)
	}
	if bytes.Equal(got, clean) {
		t.Error("standing rot should have damaged the region")
	}
	f.DisarmRot()
	if _, err := d.WriteAt(clean, 0); err != nil {
		t.Fatal(err)
	}
	if _, err := f.ReadAt(buf, 2048); err != nil {
		t.Fatal(err)
	}
	if _, err := d.ReadAt(got, 0); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, clean) {
		t.Error("disarmed rot should leave the region alone")
	}
}

func TestFaultDiskDeadAfterTrip(t *testing.T) {
	f, _ := testFaultDisk(t)
	f.Arm(0, FaultOmit)
	if _, err := f.WriteAt([]byte{1}, 0); !errors.Is(err, ErrFault) {
		t.Fatalf("err=%v", err)
	}
	if _, err := f.WriteAt([]byte{1}, 0); !errors.Is(err, ErrFault) {
		t.Error("writes after the fault should keep failing")
	}
	if _, err := f.ReadAt(make([]byte, 1), 0); !errors.Is(err, ErrFault) {
		t.Error("reads after the fault should fail")
	}
	if err := f.Flush(); !errors.Is(err, ErrFault) {
		t.Error("flushes after the fault should fail")
	}
}

func TestFaultDiskRearmResets(t *testing.T) {
	f, _ := testFaultDisk(t)
	f.Arm(0, FaultOmit)
	f.WriteAt([]byte{1}, 0)
	f.Arm(-1, FaultTorn) // disarm
	if _, err := f.WriteAt([]byte{1}, 0); err != nil {
		t.Fatalf("disarmed write: %v", err)
	}
	if f.Tripped() {
		t.Error("rearm should clear the trip state")
	}
}

func TestFaultDiskArmFlushTripsOnNthBarrier(t *testing.T) {
	f, _ := testFaultDisk(t)
	f.ArmFlush(2)
	if err := f.Flush(); err != nil {
		t.Fatalf("first flush: %v", err)
	}
	if err := f.Flush(); !errors.Is(err, ErrFault) {
		t.Fatalf("second flush should trip: %v", err)
	}
	if !f.Tripped() {
		t.Error("flush fault should trip the device")
	}
	if _, err := f.WriteAt([]byte{1}, 0); !errors.Is(err, ErrFault) {
		t.Error("writes after the flush fault should fail")
	}
	if f.Flushes() != 2 {
		t.Errorf("flushes = %d, want 2", f.Flushes())
	}
}

func TestPartialFlushDestagesPrefixOnly(t *testing.T) {
	d := New(Params{Sectors: 1 << 10, WriteCache: true}, &vclock.Clock{})
	a := bytes.Repeat([]byte{0xaa}, 2*SectorSize)
	b := bytes.Repeat([]byte{0xbb}, 2*SectorSize)
	if _, err := d.WriteAt(a, 0); err != nil {
		t.Fatal(err)
	}
	if _, err := d.WriteAt(b, 8*SectorSize); err != nil {
		t.Fatal(err)
	}
	boom := errors.New("boom")
	// Budget covers the first cached write and half the second: the second
	// is torn at a sector boundary and the remainder of the cache is lost.
	d.FailFlushAfter(2*SectorSize+SectorSize+100, boom)
	if err := d.Flush(); !errors.Is(err, boom) {
		t.Fatalf("partial flush should report the injected error: %v", err)
	}
	d.Crash()
	got := make([]byte, 2*SectorSize)
	if _, err := d.ReadAt(got, 0); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, a) {
		t.Error("first write should have destaged whole")
	}
	if _, err := d.ReadAt(got, 8*SectorSize); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got[:SectorSize], b[:SectorSize]) {
		t.Error("second write should have destaged its first sector")
	}
	if !bytes.Equal(got[SectorSize:], make([]byte, SectorSize)) {
		t.Error("second write's torn sector should be untouched")
	}
	// The arm is one-shot: a later flush destages normally.
	if _, err := d.WriteAt(a, 16*SectorSize); err != nil {
		t.Fatal(err)
	}
	if err := d.Flush(); err != nil {
		t.Fatalf("later flush: %v", err)
	}
}
