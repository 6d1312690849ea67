package kernel

import (
	"errors"
	"fmt"
	"math/rand"
	"sync"
	"testing"

	"histar/internal/label"
)

// Ring tests: a read is checked against the label the thread holds when it
// is made, a batch of reads sees the calls made before its Wait, stats
// accounting, and a -race stress test of many threads reading overlapping
// segments through rings while they write them directly.

// ringTestEnv is a booted kernel with a few segments to batch against.
type ringTestEnv struct {
	k    *Kernel
	tc   *ThreadCall
	segs []CEnt
}

func newRingEnv(t *testing.T, nSegs, segSize int) *ringTestEnv {
	t.Helper()
	k, tc := boot(t)
	env := &ringTestEnv{k: k, tc: tc}
	for i := 0; i < nSegs; i++ {
		id, err := tc.SegmentCreate(k.RootContainer(), label.New(label.L1), fmt.Sprintf("ring seg %d", i), segSize)
		if err != nil {
			t.Fatalf("SegmentCreate: %v", err)
		}
		env.segs = append(env.segs, CEnt{Container: k.RootContainer(), Object: id})
	}
	return env
}

// TestRingRunsInSubmissionOrder pins that a ring entry is its direct call,
// made where it stands among the thread's other calls: a read or a sync is
// checked against the label the thread holds when it is made, not one a later
// gate entry grants (whichever of the two objects has the lower id); a sync
// covers exactly the writes made before it; and each read sees exactly the
// writes and resizes made before it.
func TestRingRunsInSubmissionOrder(t *testing.T) {
	k, tc := boot(t)
	root := k.RootContainer()
	fp := newFakePager()
	k.SetPager(fp)
	u, err := tc.CategoryCreate()
	if err != nil {
		t.Fatal(err)
	}
	uStar := label.New(label.L1, label.P(u, label.Star))
	gateID, err := tc.GateCreate(root, GateSpec{
		Label: uStar, Clearance: label.New(label.L2), Descrip: "grants u",
		Entry: func(*GateCallCtx) []byte { return nil },
	})
	if err != nil {
		t.Fatal(err)
	}
	enter := func(client *ThreadCall) {
		t.Helper()
		if _, err := client.GateEnter(CEnt{root, gateID}, GateRequest{
			Label: uStar, Clearance: label.New(label.L2), Verify: label.New(label.L1),
		}); err != nil {
			t.Fatal(err)
		}
	}

	t.Run("sync before the gate entry", func(t *testing.T) {
		s, err := tc.SegmentCreate(root, label.New(label.L1, label.P(u, label.L0)), "modifiable under u", 16)
		if err != nil {
			t.Fatal(err)
		}
		ce := CEnt{root, s}
		if err := tc.SegmentPersist(ce); err != nil {
			t.Fatal(err)
		}
		client := spawnWorker(t, k, tc, "client")
		if err := client.SyncSegments(ce); !errors.Is(err, ErrLabel) {
			t.Errorf("sync before the gate entry = %v, want ErrLabel", err)
		}
		if fp.puts != 0 || len(fp.groups) != 0 {
			t.Errorf("the pager saw %d pushes and groups %v, want none", fp.puts, fp.groups)
		}
		enter(client)
		if err := client.SyncSegments(ce); err != nil || fp.puts != 1 {
			t.Errorf("sync after the gate entry = %v with %d pushes, want nil and 1", err, fp.puts)
		}
	})

	t.Run("read before the gate entry", func(t *testing.T) {
		// Reply segments until one has an id below the gate's and one above.
		var below, above ID
		for i := 0; i < 64 && (below == NilID || above == NilID); i++ {
			id, err := tc.SegmentCreate(root, label.New(label.L1, label.P(u, label.L3)), "observable under u", 16)
			if err != nil {
				t.Fatal(err)
			}
			if id < gateID {
				below = id
			} else {
				above = id
			}
		}
		if below == NilID || above == NilID {
			t.Fatal("no reply segment on one side of the gate's id")
		}
		for _, reply := range []ID{below, above} {
			client := spawnWorker(t, k, tc, "client")
			r := client.NewRing()
			read := RingEntry{Op: OpSegmentRead, Seg: CEnt{root, reply}, Len: 16}
			r.Submit(read)
			errs, err := r.Wait(1)
			if err != nil || !errors.Is(errs[0], ErrLabel) {
				t.Errorf("reply id %v, gate id %v: read before the gate entry = %v, %v; want ErrLabel", reply, gateID, err, errs)
			}
			enter(client)
			r.Submit(read)
			if errs, err = r.Wait(1); err != nil || errs[0] != nil {
				t.Errorf("reply id %v, gate id %v: read after the gate entry = %v, %v", reply, gateID, err, errs)
			}
		}
	})

	t.Run("sync before a write", func(t *testing.T) {
		x, err := tc.SegmentCreate(root, label.New(label.L1), "x", 0)
		if err != nil {
			t.Fatal(err)
		}
		ce := CEnt{root, x}
		if err := tc.SegmentPersist(ce); err != nil {
			t.Fatal(err)
		}
		if err := tc.SegmentWrite(ce, 0, []byte("before")); err != nil {
			t.Fatal(err)
		}
		if err := tc.SyncSegments(ce); err != nil {
			t.Fatal(err)
		}
		if err := tc.SegmentWrite(ce, 0, []byte("after!")); err != nil {
			t.Fatalf("write after the sync: %v", err)
		}
		if got := fp.data[uint64(x)]; string(got) != "before" {
			t.Errorf("the pager holds %q, want the bytes from before the write", got)
		}
		if got, err := tc.SegmentRead(ce, 0, 6); err != nil || string(got) != "after!" {
			t.Errorf("segment = %q, %v; want the write", got, err)
		}
	})

	t.Run("reads after writes", func(t *testing.T) {
		var segs [2]CEnt
		for i := range segs {
			id, err := tc.SegmentCreate(root, label.New(label.L1), "read target", 0)
			if err != nil {
				t.Fatal(err)
			}
			segs[i] = CEnt{root, id}
		}
		a, b := segs[1], segs[0]
		read := func(ce CEnt) (string, int, error) {
			v, err := tc.SegmentRead(ce, 0, 8)
			return string(v), len(v), err
		}
		write := func(ce CEnt, s string) (string, int, error) {
			if err := tc.SegmentWrite(ce, 0, []byte(s)); err != nil {
				return "", 0, err
			}
			return "", len(s), nil
		}
		for i, c := range []struct {
			call func() (string, int, error)
			val  string
			n    int
		}{
			{func() (string, int, error) { return read(a) }, "", 0},
			{func() (string, int, error) { return write(a, "first") }, "", 5},
			{func() (string, int, error) { return read(b) }, "", 0},
			{func() (string, int, error) { return write(b, "second") }, "", 6},
			{func() (string, int, error) { return read(a) }, "first", 5},
			{func() (string, int, error) { return "", 0, tc.SegmentResize(a, 2) }, "", 0},
			{func() (string, int, error) { n, err := tc.SegmentLen(a); return "", n, err }, "", 2},
			{func() (string, int, error) { return read(b) }, "second", 6},
		} {
			if val, n, err := c.call(); err != nil || val != c.val || n != c.n {
				t.Errorf("call %d = (%q, %d, %v), want (%q, %d, nil)", i, val, n, err, c.val, c.n)
			}
		}
	})
}

// TestRingCountsAndCoalescing checks the accounting: a Wait of four entries
// is four direct reads, each in the per-syscall counter and no other, and no
// shared open — a same-target run shares none, so Runs and Coalesced stay 0.
func TestRingCountsAndCoalescing(t *testing.T) {
	env := newRingEnv(t, 2, 64)
	env.k.ResetSyscallCounts()
	before := env.k.RingStats()
	ring := env.tc.NewRing()
	ring.Submit(
		RingEntry{Op: OpSegmentRead, Seg: env.segs[0], Len: 8},
		RingEntry{Op: OpSegmentRead, Seg: env.segs[0], Len: 64},
		RingEntry{Op: OpSegmentRead, Seg: env.segs[0], Len: 1},
		RingEntry{Op: OpSegmentRead, Seg: env.segs[1], Len: 8},
	)
	errs, err := ring.Wait(4)
	if err != nil {
		t.Fatal(err)
	}
	for i, err := range errs {
		if err != nil {
			t.Fatalf("entry %d: %v", i, err)
		}
	}
	counts := env.k.SyscallCounts()
	if counts["segment_read"] != 4 || env.k.SyscallTotal() != 4 {
		t.Errorf("per-entry counts = %v, want the four entries' calls and nothing else", counts)
	}
	st := env.k.RingStats()
	if waits, entries := st.Waits-before.Waits, st.Entries-before.Entries; waits != 1 || entries != 4 {
		t.Errorf("RingStats waits/entries = %d/%d, want 1/4", waits, entries)
	}
	// Every entry opens on its own, three on one target or not: no run is
	// shared, and the run counters stay 0.
	if st.Runs != 0 || st.Coalesced != 0 || st.GateCalls != 0 {
		t.Errorf("RingStats runs/coalesced/gate calls = %d/%d/%d, want 0/0/0", st.Runs, st.Coalesced, st.GateCalls)
	}
}

// TestRingConcurrentOverlap is the -race stress: many threads submit batches
// of reads over overlapping segments, with the writes, lengths and stats of
// each round made directly before its Wait, and sync a segment through the
// kernel's pager after each batch.
func TestRingConcurrentOverlap(t *testing.T) {
	const nWorkers, nBatches = 8, 60
	env := newRingEnv(t, 4, 256)
	env.k.SetPager(newFakePager())
	for _, ce := range env.segs {
		if err := env.tc.SegmentPersist(ce); err != nil {
			t.Fatal(err)
		}
	}
	var wg sync.WaitGroup
	errCh := make(chan error, nWorkers)
	for w := 0; w < nWorkers; w++ {
		tc := spawnWorker(t, env.k, env.tc, fmt.Sprintf("ring worker %d", w))
		wg.Add(1)
		go func(w int, tc *ThreadCall) {
			defer wg.Done()
			rng := rand.New(rand.NewSource(int64(w)))
			ring := tc.NewRing()
			fail := func(err error) {
				select {
				case errCh <- fmt.Errorf("worker %d: %w", w, err):
				default:
				}
			}
			for b := 0; b < nBatches; b++ {
				n := 1 + rng.Intn(8)
				for i := 0; i < n; i++ {
					ce := env.segs[rng.Intn(len(env.segs))]
					var err error
					switch rng.Intn(4) {
					case 0:
						ring.Submit(RingEntry{Op: OpSegmentRead, Seg: ce, Len: 64 + rng.Intn(64)})
					case 1:
						err = tc.SegmentWrite(ce, rng.Intn(64), []byte{byte(w), byte(b)})
					case 2:
						_, err = tc.SegmentLen(ce)
					case 3:
						_, err = tc.ObjectStat(ce)
					}
					if err != nil {
						fail(err)
						return
					}
				}
				errs, err := ring.Wait(0)
				if err = errors.Join(append(errs, err)...); err != nil {
					fail(err)
					return
				}
				if err := tc.SyncSegments(env.segs[rng.Intn(len(env.segs))]); err != nil {
					fail(err)
					return
				}
			}
		}(w, tc)
	}
	wg.Wait()
	select {
	case err := <-errCh:
		t.Fatal(err)
	default:
	}
	st := env.k.RingStats()
	if st.Waits == 0 || st.Entries == 0 {
		t.Errorf("no ring activity recorded: %+v", st)
	}
}
