package kernel

import (
	"errors"
	"testing"
	"time"

	"histar/internal/label"
)

// setupAS creates an address space for the boot thread with one read-write
// mapping of a fresh segment at va 0x10000, and switches the thread to it.
func setupAS(t *testing.T, k *Kernel, tc *ThreadCall, segLabel label.Label, flags MapFlags) (asID, segID ID) {
	t.Helper()
	root := k.RootContainer()
	seg, err := tc.SegmentCreate(root, segLabel, "mapped seg", 2*PageSize)
	if err != nil {
		t.Fatal(err)
	}
	as, err := tc.AddressSpaceCreate(root, label.New(label.L1), "as")
	if err != nil {
		t.Fatal(err)
	}
	err = tc.AddressSpaceSet(CEnt{root, as}, []Mapping{{
		VA:     0x10000,
		Seg:    CEnt{root, seg},
		Offset: 0,
		NPages: 2,
		Flags:  flags,
	}})
	if err != nil {
		t.Fatal(err)
	}
	if err := tc.SelfSetAddressSpace(CEnt{root, as}); err != nil {
		t.Fatal(err)
	}
	if got, err := tc.SelfAddressSpace(); err != nil || got != (CEnt{root, as}) {
		t.Fatalf("SelfAddressSpace = %v, %v after switching to %v", got, err, CEnt{root, as})
	}
	return as, seg
}

func TestMemReadWriteThroughMapping(t *testing.T) {
	k, tc := boot(t)
	_, seg := setupAS(t, k, tc, label.New(label.L1), MapRead|MapWrite)
	root := k.RootContainer()

	if err := tc.MemWrite(0x10000, []byte("mapped data")); err != nil {
		t.Fatal(err)
	}
	got, err := tc.MemRead(0x10000, 11)
	if err != nil || string(got) != "mapped data" {
		t.Fatalf("MemRead = %q, %v", got, err)
	}
	// The write went to the backing segment.
	direct, err := tc.SegmentRead(CEnt{root, seg}, 0, 11)
	if err != nil || string(direct) != "mapped data" {
		t.Errorf("segment contents = %q, %v", direct, err)
	}
	// Accessing an unmapped address faults.
	if _, err := tc.MemRead(0x90000, 4); !errors.Is(err, ErrNoMapping) {
		t.Errorf("unmapped read: err=%v", err)
	}
}

func TestMemWriteRequiresWriteFlag(t *testing.T) {
	k, tc := boot(t)
	setupAS(t, k, tc, label.New(label.L1), MapRead)
	_ = k
	if err := tc.MemWrite(0x10000, []byte("x")); !errors.Is(err, ErrAccess) {
		t.Errorf("write through read-only mapping: err=%v", err)
	}
	if _, err := tc.MemRead(0x10000, 4); err != nil {
		t.Errorf("read through read-only mapping should work: %v", err)
	}
}

func TestPageFaultLabelChecks(t *testing.T) {
	k, tc := boot(t)
	root := k.RootContainer()
	c, _ := tc.CategoryCreate()

	// Map a c0-protected segment read-write into an untainted thread's AS.
	seg, _ := tc.SegmentCreate(root, label.New(label.L1, label.P(c, label.L0)), "protected", PageSize)
	as, _ := tc.AddressSpaceCreate(root, label.New(label.L1), "as2")
	_ = tc.AddressSpaceSet(CEnt{root, as}, []Mapping{{
		VA: 0x20000, Seg: CEnt{root, seg}, NPages: 1, Flags: MapRead | MapWrite,
	}})

	tid, _ := tc.ThreadCreate(root, ThreadSpec{
		Label:        label.New(label.L1),
		Clearance:    label.New(label.L2),
		AddressSpace: CEnt{root, as},
	})
	tc2, _ := k.ThreadCall(tid)

	// Reads are fine (c0 restricts writes only)...
	if _, err := tc2.MemRead(0x20000, 4); err != nil {
		t.Errorf("read of c0 segment: %v", err)
	}
	// ...but writes fail the LT ⊑ LO page-fault check even though the
	// mapping has the write flag.
	if err := tc2.MemWrite(0x20000, []byte("no")); !errors.Is(err, ErrLabel) {
		t.Errorf("write to c0 segment: err=%v, want ErrLabel", err)
	}
	// The owner of c can write through the same mapping.
	if err := tc.SelfSetAddressSpace(CEnt{root, as}); err != nil {
		t.Fatal(err)
	}
	if err := tc.MemWrite(0x20000, []byte("yes")); err != nil {
		t.Errorf("owner write: %v", err)
	}
}

func TestFaultHandlerInvoked(t *testing.T) {
	k, tc := boot(t)
	as, _ := setupAS(t, k, tc, label.New(label.L1), MapRead|MapWrite)
	root := k.RootContainer()
	var faults []uint64
	err := tc.SetFaultHandler(CEnt{root, as}, func(va uint64, write bool, err error) {
		faults = append(faults, va)
	})
	if err != nil {
		t.Fatal(err)
	}
	tc.MemRead(0xdead000, 4)
	if len(faults) != 1 || faults[0] != 0xdead000 {
		t.Errorf("fault handler calls = %v", faults)
	}
}

func TestThreadLocalSegment(t *testing.T) {
	k, tc := boot(t)
	// Thread-local reads/writes work regardless of taint.
	if err := tc.LocalSegmentWrite(0, []byte("scratch")); err != nil {
		t.Fatal(err)
	}
	got, err := tc.LocalSegmentRead(0, 7)
	if err != nil || string(got) != "scratch" {
		t.Fatalf("local segment = %q, %v", got, err)
	}
	// Mapping the local segment into the AS with the MapThreadLocal flag.
	root := k.RootContainer()
	as, err := tc.AddressSpaceCreate(root, label.New(label.L1), "tls-as")
	if err != nil {
		t.Fatal(err)
	}
	if err := tc.AddressSpaceSet(CEnt{root, as}, []Mapping{{
		VA: 0x7000000, NPages: 1, Flags: MapRead | MapWrite | MapThreadLocal,
	}}); err != nil {
		t.Fatal(err)
	}
	if err := tc.SelfSetAddressSpace(CEnt{root, as}); err != nil {
		t.Fatal(err)
	}
	if err := tc.MemWrite(0x7000000, []byte("tls!")); err != nil {
		t.Fatalf("mem write to TLS mapping: %v", err)
	}
	got, _ = tc.LocalSegmentRead(0, 4)
	if string(got) != "tls!" {
		t.Errorf("TLS contents = %q", got)
	}
	// Taint the thread heavily; the local segment must remain writable.
	lbl, _ := tc.SelfLabel()
	if err := tc.SelfSetLabel(lbl.With(label.Category(5150), label.L2)); err != nil {
		t.Fatal(err)
	}
	if err := tc.LocalSegmentWrite(8, []byte("still works")); err != nil {
		t.Errorf("tainted thread must write its local segment: %v", err)
	}
	// Bounds are enforced.
	if err := tc.LocalSegmentWrite(4090, []byte("too long......")); !errors.Is(err, ErrInvalid) {
		t.Errorf("out-of-bounds local write: err=%v", err)
	}
}

func TestAddressSpaceAddRemoveMapping(t *testing.T) {
	k, tc := boot(t)
	root := k.RootContainer()
	seg, _ := tc.SegmentCreate(root, label.New(label.L1), "s", PageSize)
	as, _ := tc.AddressSpaceCreate(root, label.New(label.L1), "as")
	ce := CEnt{root, as}
	if err := tc.AddressSpaceAddMapping(ce, Mapping{VA: 0x1000, Seg: CEnt{root, seg}, NPages: 1, Flags: MapRead}); err != nil {
		t.Fatal(err)
	}
	maps, _ := tc.AddressSpaceGet(ce)
	if len(maps) != 1 {
		t.Fatalf("mappings = %d", len(maps))
	}
	// Unaligned VA rejected.
	if err := tc.AddressSpaceAddMapping(ce, Mapping{VA: 0x1001, Seg: CEnt{root, seg}, NPages: 1}); !errors.Is(err, ErrInvalid) {
		t.Errorf("unaligned mapping: err=%v", err)
	}
	if err := tc.AddressSpaceRemoveMapping(ce, 0x1000); err != nil {
		t.Fatal(err)
	}
	if err := tc.AddressSpaceRemoveMapping(ce, 0x1000); !errors.Is(err, ErrNoMapping) {
		t.Errorf("removing missing mapping: err=%v", err)
	}
}

func TestAlerts(t *testing.T) {
	k, tc := boot(t)
	root := k.RootContainer()
	// Create a target thread with an address space the sender can write.
	as, _ := tc.AddressSpaceCreate(root, label.New(label.L1), "victim as")
	tid, _ := tc.ThreadCreate(root, ThreadSpec{
		Label:        label.New(label.L1),
		Clearance:    label.New(label.L2),
		AddressSpace: CEnt{root, as},
	})
	victim, _ := k.ThreadCall(tid)

	if err := tc.ThreadAlert(CEnt{root, tid}, 15); err != nil {
		t.Fatal(err)
	}
	code, ok, err := victim.AlertPoll()
	if err != nil || !ok || code != 15 {
		t.Fatalf("AlertPoll = %d, %v, %v", code, ok, err)
	}
	// Blocking wait.
	done := make(chan uint64, 1)
	go func() {
		c, err := victim.AlertWait()
		if err == nil {
			done <- c
		}
	}()
	if err := tc.ThreadAlert(CEnt{root, tid}, 9); err != nil {
		t.Fatal(err)
	}
	if got := <-done; got != 9 {
		t.Errorf("AlertWait = %d", got)
	}
}

func TestAlertRequiresAddressSpaceWritePermission(t *testing.T) {
	k, tc := boot(t)
	root := k.RootContainer()
	pw, _ := tc.CategoryCreateNamed("pw")
	// The victim's address space is protected by pw 0, like a HiStar
	// process's objects; only pw owners can signal it.
	as, _ := tc.AddressSpaceCreate(root, label.New(label.L1, label.P(pw, label.L0)), "private as")
	tid, _ := tc.ThreadCreate(root, ThreadSpec{
		Label:        label.New(label.L1, label.P(pw, label.Star)),
		Clearance:    label.New(label.L2, label.P(pw, label.L3)),
		AddressSpace: CEnt{root, as},
	})

	// An unrelated thread cannot alert it.
	outsiderID, _ := tc.ThreadCreate(root, ThreadSpec{Label: label.New(label.L1), Clearance: label.New(label.L2)})
	outsider, _ := k.ThreadCall(outsiderID)
	if err := outsider.ThreadAlert(CEnt{root, tid}, 9); !errors.Is(err, ErrLabel) {
		t.Errorf("outsider alert should fail: err=%v", err)
	}
	// The pw owner can.
	if err := tc.ThreadAlert(CEnt{root, tid}, 9); err != nil {
		t.Errorf("owner alert failed: %v", err)
	}
}

func TestFutexWaitWake(t *testing.T) {
	k, tc := boot(t)
	root := k.RootContainer()
	seg, _ := tc.SegmentCreate(root, label.New(label.L1), "futex word", 16)
	ce := CEnt{root, seg}

	// Wait on a value that no longer matches returns immediately.
	if err := tc.FutexWait(ce, 0, 42); err != nil {
		t.Fatalf("non-matching futex wait should return immediately: %v", err)
	}

	// A second thread blocks until woken.
	tid, _ := tc.ThreadCreate(root, ThreadSpec{Label: label.New(label.L1), Clearance: label.New(label.L2)})
	waiter, _ := k.ThreadCall(tid)
	done := make(chan struct{})
	go func() {
		waiter.FutexWait(ce, 0, 0)
		close(done)
	}()
	// Give the waiter a moment to block, then wake it.
	for i := 0; ; i++ {
		n, err := tc.FutexWake(ce, 0, 1)
		if err != nil {
			t.Fatal(err)
		}
		if n == 1 {
			break
		}
		if i > 5000 {
			t.Fatal("waiter never blocked")
		}
		time.Sleep(time.Millisecond)
	}
	<-done

	// FutexWake on a segment the thread cannot modify is rejected.
	c, _ := tc.CategoryCreate()
	sealed, _ := tc.SegmentCreate(root, label.New(label.L1, label.P(c, label.L0)), "sealed", 16)
	outsiderID, _ := tc.ThreadCreate(root, ThreadSpec{Label: label.New(label.L1), Clearance: label.New(label.L2)})
	outsider, _ := k.ThreadCall(outsiderID)
	if _, err := outsider.FutexWake(CEnt{root, sealed}, 0, 1); !errors.Is(err, ErrLabel) {
		t.Errorf("futex wake without write permission: err=%v", err)
	}
}

func TestDeviceLabelDiscipline(t *testing.T) {
	k, tc := boot(t)
	root := k.RootContainer()
	nr, _ := tc.CategoryCreateNamed("nr")
	nw, _ := tc.CategoryCreateNamed("nw")
	i, _ := tc.CategoryCreateNamed("i")

	devLabel := label.New(label.L1,
		label.P(nr, label.L3), label.P(nw, label.L0), label.P(i, label.L2))
	dev, err := k.DeviceCreate(root, devLabel, [6]byte{0xde, 0xad, 0xbe, 0xef, 0, 1}, "eepro100")
	if err != nil {
		t.Fatal(err)
	}
	ce := CEnt{root, dev}

	var transmitted [][]byte
	k.SetDeviceTransmitHook(dev, func(pkt []byte) { transmitted = append(transmitted, pkt) })

	// netd (owning nr and nw, tainted i2) can use the device.
	netdID, _ := tc.ThreadCreate(root, ThreadSpec{
		Label: label.New(label.L1,
			label.P(nr, label.Star), label.P(nw, label.Star), label.P(i, label.L2)),
		Clearance: label.New(label.L2,
			label.P(nr, label.L3), label.P(nw, label.L3), label.P(i, label.L2)),
	})
	netd, _ := k.ThreadCall(netdID)
	if _, err := netd.DeviceMAC(ce); err != nil {
		t.Errorf("netd MAC read: %v", err)
	}
	if err := netd.DeviceTransmit(ce, []byte("frame 1")); err != nil {
		t.Errorf("netd transmit: %v", err)
	}
	if len(transmitted) != 1 {
		t.Errorf("transmit hook calls = %d", len(transmitted))
	}
	// Inbound packets can be received by netd.
	k.DeviceInject(dev, []byte("inbound"))
	pkt, ok, err := netd.DeviceReceive(ce)
	if err != nil || !ok || string(pkt) != "inbound" {
		t.Errorf("receive = %q, %v, %v", pkt, ok, err)
	}

	// A thread tainted in some other secrecy category v3 cannot transmit:
	// its taint does not flow to the device label.
	v, _ := tc.CategoryCreate()
	taintedID, _ := tc.ThreadCreate(root, ThreadSpec{
		Label: label.New(label.L1,
			label.P(nr, label.Star), label.P(nw, label.Star),
			label.P(i, label.L2), label.P(v, label.L3)),
		Clearance: label.New(label.L2,
			label.P(nr, label.L3), label.P(nw, label.L3),
			label.P(i, label.L2), label.P(v, label.L3)),
	})
	tainted, _ := k.ThreadCall(taintedID)
	if err := tainted.DeviceTransmit(ce, []byte("leak")); !errors.Is(err, ErrLabel) {
		t.Errorf("tainted transmit must fail: err=%v", err)
	}
	// An ordinary thread (no nr/nw ownership) can neither read nor write the
	// device.
	plainID, _ := tc.ThreadCreate(root, ThreadSpec{Label: label.New(label.L1), Clearance: label.New(label.L2)})
	plain, _ := k.ThreadCall(plainID)
	if _, err := plain.DeviceMAC(ce); !errors.Is(err, ErrLabel) {
		t.Errorf("plain thread MAC read must fail: err=%v", err)
	}
	if err := plain.DeviceTransmit(ce, []byte("x")); !errors.Is(err, ErrLabel) {
		t.Errorf("plain thread transmit must fail: err=%v", err)
	}
}

func TestDeviceWaitBlocksUntilInject(t *testing.T) {
	k, tc := boot(t)
	root := k.RootContainer()
	dev, _ := k.DeviceCreate(root, label.New(label.L1), [6]byte{1}, "nic")
	ce := CEnt{root, dev}
	done := make(chan []byte, 1)
	go func() {
		if err := tc.DeviceWait(ce); err != nil {
			done <- nil
			return
		}
		pkt, _, _ := tc.DeviceReceive(ce)
		done <- pkt
	}()
	k.DeviceInject(dev, []byte("wake up"))
	if got := <-done; string(got) != "wake up" {
		t.Errorf("DeviceWait/Receive = %q", got)
	}
}
