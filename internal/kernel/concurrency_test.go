package kernel

import (
	"errors"
	"fmt"
	"sync"
	"testing"
	"time"

	"histar/internal/label"
)

// These tests exercise the sharded object table and the per-object locking
// discipline under real concurrency.  They are the targets of the CI
// `go test -race ./internal/kernel -run Concurrent` step; the deadlock smoke
// tests additionally guard the multi-object lock-ordering paths (gate
// invocation, cross-container links, recursive unref) with a watchdog.

// spawnWorker creates a worker thread with default privileges in the root
// container and returns its syscall context.
func spawnWorker(t *testing.T, k *Kernel, boot *ThreadCall, name string) *ThreadCall {
	t.Helper()
	tid, err := boot.ThreadCreate(k.RootContainer(), ThreadSpec{
		Label:     label.New(label.L1),
		Clearance: label.New(label.L2),
		Descrip:   name,
	})
	if err != nil {
		t.Fatalf("ThreadCreate(%s): %v", name, err)
	}
	tc, err := k.ThreadCall(tid)
	if err != nil {
		t.Fatalf("ThreadCall(%s): %v", name, err)
	}
	return tc
}

// runConcurrentStress drives nWorkers goroutines, each with its own thread,
// through a mixed create/read/write/stat/link/unref workload against both
// private and shared containers.
func runConcurrentStress(t *testing.T, cfg Config, nWorkers, iters int) *Kernel {
	t.Helper()
	k := New(cfg)
	boot, err := k.BootThread(label.New(label.L1), label.New(label.L2), "boot")
	if err != nil {
		t.Fatal(err)
	}
	root := k.RootContainer()
	shared, err := boot.ContainerCreate(root, label.New(label.L1), "shared", 0, 64<<20)
	if err != nil {
		t.Fatal(err)
	}
	// A shared read-mostly segment everyone hammers with reads.
	hot, err := boot.SegmentCreate(shared, label.New(label.L1), "hot", 128)
	if err != nil {
		t.Fatal(err)
	}
	hotCE := CEnt{Container: shared, Object: hot}

	var wg sync.WaitGroup
	errCh := make(chan error, nWorkers)
	for w := 0; w < nWorkers; w++ {
		tc := spawnWorker(t, k, boot, fmt.Sprintf("worker%d", w))
		wg.Add(1)
		go func(w int, tc *ThreadCall) {
			defer wg.Done()
			fail := func(op string, err error) {
				select {
				case errCh <- fmt.Errorf("worker %d %s: %w", w, op, err):
				default:
				}
			}
			priv, err := tc.ContainerCreate(root, label.New(label.L1), fmt.Sprintf("w%d", w), 0, 32<<20)
			if err != nil {
				fail("ContainerCreate", err)
				return
			}
			for i := 0; i < iters; i++ {
				// Read-heavy: hammer the shared segment and container.
				if _, err := tc.SegmentRead(hotCE, 0, 64); err != nil {
					fail("SegmentRead(hot)", err)
					return
				}
				if _, err := tc.SegmentLen(hotCE); err != nil {
					fail("SegmentLen(hot)", err)
					return
				}
				if _, err := tc.ObjectStat(hotCE); err != nil {
					fail("ObjectStat(hot)", err)
					return
				}
				if _, err := tc.ContainerList(Self(shared)); err != nil {
					fail("ContainerList(shared)", err)
					return
				}
				// Private create/write/read/unref churn.
				seg, err := tc.SegmentCreate(priv, label.New(label.L1), "scratch", 64)
				if err != nil {
					fail("SegmentCreate", err)
					return
				}
				ce := CEnt{Container: priv, Object: seg}
				if err := tc.SegmentWrite(ce, 0, []byte("payload")); err != nil {
					fail("SegmentWrite", err)
					return
				}
				if _, err := tc.SegmentRead(ce, 0, 7); err != nil {
					fail("SegmentRead", err)
					return
				}
				// Cross-shard sharing: occasionally link the private segment
				// into the shared container and unlink it again.
				if i%8 == 0 {
					if err := tc.ObjectSetFixedQuota(ce); err != nil {
						fail("ObjectSetFixedQuota", err)
						return
					}
					if err := tc.Link(shared, ce); err != nil && !errors.Is(err, ErrQuota) {
						fail("Link", err)
						return
					} else if err == nil {
						if err := tc.Unref(shared, seg); err != nil {
							fail("Unref(shared)", err)
							return
						}
					}
				}
				if err := tc.Unref(priv, seg); err != nil {
					fail("Unref(priv)", err)
					return
				}
				// Shared-container writes contend across shards.
				if i%16 == 0 {
					s2, err := tc.SegmentCreate(shared, label.New(label.L1), "shared-scratch", 16)
					if err != nil && !errors.Is(err, ErrQuota) {
						fail("SegmentCreate(shared)", err)
						return
					}
					if err == nil {
						if err := tc.Unref(shared, s2); err != nil {
							fail("Unref(shared-scratch)", err)
							return
						}
					}
				}
			}
			if err := tc.Unref(root, priv); err != nil {
				fail("Unref(root, priv)", err)
			}
		}(w, tc)
	}
	wg.Wait()
	select {
	case err := <-errCh:
		t.Fatal(err)
	default:
	}
	return k
}

func TestConcurrentSyscallStress(t *testing.T) {
	iters := 400
	if testing.Short() {
		iters = 50
	}
	k := runConcurrentStress(t, Config{Seed: 11}, 8, iters)
	if n := k.ObjectCount(); n < 2 {
		t.Fatalf("object count after stress = %d", n)
	}
}

// TestConcurrentLabelEnforcement churns a thread's label while other
// threads hammer observation checks, verifying that the per-thread L1 in
// front of the comparison cache never leaks a stale verdict: the secret
// stays unreadable to unprivileged threads throughout.
func TestConcurrentLabelEnforcement(t *testing.T) {
	k := New(Config{Seed: 13})
	boot, err := k.BootThread(label.New(label.L1), label.New(label.L2), "boot")
	if err != nil {
		t.Fatal(err)
	}
	root := k.RootContainer()
	c, err := boot.CategoryCreate()
	if err != nil {
		t.Fatal(err)
	}
	secret, err := boot.SegmentCreate(root, label.New(label.L1, label.P(c, label.L3)), "secret", 16)
	if err != nil {
		t.Fatal(err)
	}
	secretCE := CEnt{Container: root, Object: secret}
	plain, err := boot.SegmentCreate(root, label.New(label.L1), "plain", 16)
	if err != nil {
		t.Fatal(err)
	}
	plainCE := CEnt{Container: root, Object: plain}

	iters := 300
	if testing.Short() {
		iters = 50
	}
	var wg sync.WaitGroup
	errCh := make(chan error, 4)
	for w := 0; w < 4; w++ {
		tc := spawnWorker(t, k, boot, fmt.Sprintf("snoop%d", w))
		wg.Add(1)
		go func(w int, tc *ThreadCall) {
			defer wg.Done()
			for i := 0; i < iters; i++ {
				if _, err := tc.SegmentRead(secretCE, 0, 4); !errors.Is(err, ErrLabel) {
					select {
					case errCh <- fmt.Errorf("snoop %d read the secret (err=%v)", w, err):
					default:
					}
					return
				}
				if _, err := tc.SegmentRead(plainCE, 0, 4); err != nil {
					select {
					case errCh <- fmt.Errorf("snoop %d plain read: %w", w, err):
					default:
					}
					return
				}
				// Churn the snoop's own label (taint in a fresh category) so
				// its L1 keys keep changing while checks stay correct.
				if i%16 == 0 {
					lbl, err := tc.SelfLabel()
					if err != nil {
						return
					}
					_ = tc.SelfSetLabel(lbl.With(label.Category(1000000+uint64(w*1000+i)), label.L2))
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
}

// TestDeadlockSmokeLockOrdering drives the multi-object syscalls that take
// several locks at once — gate invocation (thread + local segment +
// container), cross-container links in opposing orders, quota moves, and
// recursive unrefs of nested trees — from many goroutines, under a watchdog
// that fails the test if the kernel wedges.
func TestDeadlockSmokeLockOrdering(t *testing.T) {
	k := New(Config{Seed: 14})
	boot, err := k.BootThread(label.New(label.L1), label.New(label.L2), "boot")
	if err != nil {
		t.Fatal(err)
	}
	root := k.RootContainer()
	contA, err := boot.ContainerCreate(root, label.New(label.L1), "A", 0, 64<<20)
	if err != nil {
		t.Fatal(err)
	}
	contB, err := boot.ContainerCreate(root, label.New(label.L1), "B", 0, 64<<20)
	if err != nil {
		t.Fatal(err)
	}
	// A gate whose entry code itself issues multi-object syscalls.
	gateID, err := boot.GateCreate(contA, GateSpec{
		Label:     label.New(label.L1),
		Clearance: label.New(label.L2),
		Entry: func(call *GateCallCtx) []byte {
			seg, err := call.TC.SegmentCreate(contB, label.New(label.L1), "via-gate", 32)
			if err != nil {
				return []byte("err")
			}
			_ = call.TC.SegmentWrite(CEnt{Container: contB, Object: seg}, 0, call.Args)
			_ = call.TC.Unref(contB, seg)
			return []byte("ok")
		},
		Descrip: "worker gate",
	})
	if err != nil {
		t.Fatal(err)
	}

	iters := 200
	if testing.Short() {
		iters = 40
	}
	done := make(chan struct{})
	go func() {
		defer close(done)
		var wg sync.WaitGroup
		for w := 0; w < 6; w++ {
			tc := spawnWorker(t, k, boot, fmt.Sprintf("dl%d", w))
			wg.Add(1)
			go func(w int, tc *ThreadCall) {
				defer wg.Done()
				// Alternate link direction per worker so lock acquisition
				// would deadlock without the ascending-ID ordering.
				src, dst := contA, contB
				if w%2 == 1 {
					src, dst = contB, contA
				}
				for i := 0; i < iters; i++ {
					if _, err := tc.GateEnter(CEnt{Container: contA, Object: gateID}, GateRequest{
						Label:     label.New(label.L1),
						Clearance: label.New(label.L2),
						Verify:    label.New(label.L1),
						Args:      []byte("x"),
					}); err != nil {
						return
					}
					seg, err := tc.SegmentCreate(src, label.New(label.L1), "hop", 8)
					if err != nil {
						continue
					}
					ce := CEnt{Container: src, Object: seg}
					if err := tc.ObjectSetFixedQuota(ce); err == nil {
						if err := tc.Link(dst, ce); err == nil {
							_ = tc.Unref(dst, seg)
						}
					}
					_ = tc.QuotaMove(src, seg, 4096)
					_ = tc.Unref(src, seg)
					// Deep tree build + recursive teardown.
					if i%10 == 0 {
						top, err := tc.ContainerCreate(src, label.New(label.L1), "t0", 0, 1<<20)
						if err != nil {
							continue
						}
						cur := top
						for d := 0; d < 3; d++ {
							nxt, err := tc.ContainerCreate(cur, label.New(label.L1), "tn", 0, 1<<18)
							if err != nil {
								break
							}
							_, _ = tc.SegmentCreate(nxt, label.New(label.L1), "leaf", 16)
							cur = nxt
						}
						_ = tc.Unref(src, top)
					}
				}
			}(w, tc)
		}
		wg.Wait()
	}()
	select {
	case <-done:
	case <-time.After(2 * time.Minute):
		t.Fatal("deadlock: lock-ordering smoke test wedged")
	}
}

// TestConcurrentFutexWakeAll checks the futex shard protocol has no lost
// wakeups: every waiter blocked on the word is released once the word is
// changed and woken.
func TestConcurrentFutexWakeAll(t *testing.T) {
	k := New(Config{Seed: 15})
	boot, err := k.BootThread(label.New(label.L1), label.New(label.L2), "boot")
	if err != nil {
		t.Fatal(err)
	}
	root := k.RootContainer()
	seg, err := boot.SegmentCreate(root, label.New(label.L1), "futex", 16)
	if err != nil {
		t.Fatal(err)
	}
	ce := CEnt{Container: root, Object: seg}
	const nWaiters = 8
	var wg sync.WaitGroup
	for w := 0; w < nWaiters; w++ {
		tc := spawnWorker(t, k, boot, fmt.Sprintf("waiter%d", w))
		wg.Add(1)
		go func(tc *ThreadCall) {
			defer wg.Done()
			_ = tc.FutexWait(ce, 0, 0)
		}(tc)
	}
	// Wake in batches until everyone is gone; the word still equals the
	// expected value, so late waiters re-enqueue rather than miss.
	deadline := time.After(time.Minute)
	woken := 0
	for woken < nWaiters {
		n, err := boot.FutexWake(ce, 0, nWaiters)
		if err != nil {
			t.Fatal(err)
		}
		woken += n
		select {
		case <-deadline:
			t.Fatalf("only %d of %d waiters woken", woken, nWaiters)
		default:
		}
	}
	wg.Wait()
}

// TestConcurrentSyscallCounters checks the striped counters: per-syscall
// counts merge to the total and each thread's own counter is exact.
func TestConcurrentSyscallCounters(t *testing.T) {
	k := New(Config{Seed: 16})
	boot, err := k.BootThread(label.New(label.L1), label.New(label.L2), "boot")
	if err != nil {
		t.Fatal(err)
	}
	root := k.RootContainer()
	seg, err := boot.SegmentCreate(root, label.New(label.L1), "ctr", 8)
	if err != nil {
		t.Fatal(err)
	}
	ce := CEnt{Container: root, Object: seg}
	const nWorkers, perWorker = 6, 200
	tcs := make([]*ThreadCall, nWorkers)
	for w := range tcs {
		tcs[w] = spawnWorker(t, k, boot, fmt.Sprintf("ctr%d", w))
	}
	k.ResetSyscallCounts()
	var wg sync.WaitGroup
	for _, tc := range tcs {
		wg.Add(1)
		go func(tc *ThreadCall) {
			defer wg.Done()
			for i := 0; i < perWorker; i++ {
				if _, err := tc.SegmentRead(ce, 0, 8); err != nil {
					return
				}
			}
		}(tc)
	}
	wg.Wait()
	counts := k.SyscallCounts()
	if got := counts["segment_read"]; got != nWorkers*perWorker {
		t.Errorf("segment_read count = %d, want %d", got, nWorkers*perWorker)
	}
	var sum uint64
	for _, n := range counts {
		sum += n
	}
	if total := k.SyscallTotal(); total != sum {
		t.Errorf("SyscallTotal = %d, sum of per-syscall counts = %d", total, sum)
	}
	for w, tc := range tcs {
		if got := tc.SyscallsIssued(); got < perWorker {
			t.Errorf("worker %d SyscallsIssued = %d, want ≥ %d", w, got, perWorker)
		}
	}
}
