package kernel

import "sync"

// IPC support in the HiStar kernel, aside from shared memory and gates, is
// limited to a memory-based futex synchronization primitive (Section 4.1).
// The user-level library builds mutexes, condition variables, and pipes on
// top of it.
//
// The wait-queue table is sharded by 〈segment, offset〉 like the object
// table.  Futex shard locks are leaves that nest inside object locks: a
// waiter holds the segment's read lock while it re-checks the word and
// enqueues itself, so a wake that follows a word update (made under the
// segment's write lock) can never miss the waiter.

type futexKey struct {
	seg    ID
	offset uint64
}

type futexQueue struct {
	waiters []chan struct{}
}

// futexShardCount shards the futex table; futex traffic is far lighter than
// object-table traffic, so a small power of two suffices.
const futexShardCount = 16

type futexShard struct {
	mu sync.Mutex
	m  map[futexKey]*futexQueue
	_  [112]byte // round the struct to 128 bytes so adjacent shards never share a cache line
}

func (k *Kernel) futexShardFor(key futexKey) *futexShard {
	h := (uint64(key.seg) ^ key.offset*0x9e3779b97f4a7c15) * 0x9e3779b97f4a7c15
	return &k.futexes[(h>>32)&(futexShardCount-1)]
}

// FutexWait blocks the invoking thread until FutexWake is called on the same
// 〈segment, offset〉 address, provided the 8-byte word at that offset still
// equals expected; otherwise it returns immediately.  The thread must be
// able to observe the segment.
func (tc *ThreadCall) FutexWait(seg CEnt, offset uint64, expected uint64) error {
	ctx, err := tc.enter(scFutexWait)
	if err != nil {
		return err
	}
	s, ls, err := open[*segment](tc.k, &ctx, seg, accObserve, false)
	if err != nil {
		return err
	}
	if cur, err := s.word(offset); err != nil || cur != expected {
		ls.unlock()
		return err
	}
	// Enqueue while still holding the segment's read lock: any writer that
	// changes the word needs the write lock, so its subsequent FutexWake is
	// guaranteed to see this waiter.
	key := futexKey{seg: s.id, offset: offset}
	fs := tc.k.futexShardFor(key)
	ch := make(chan struct{}, 1)
	fs.mu.Lock()
	q := fs.m[key]
	if q == nil {
		q = &futexQueue{}
		fs.m[key] = q
	}
	q.waiters = append(q.waiters, ch)
	fs.mu.Unlock()
	ls.unlock()
	<-ch
	return nil
}

// FutexWake wakes up to n threads blocked in FutexWait on the same
// 〈segment, offset〉 address and returns how many were woken.  Waking a
// thread conveys information to it, so the invoking thread must be able to
// modify the segment.
func (tc *ThreadCall) FutexWake(seg CEnt, offset uint64, n int) (int, error) {
	ctx, err := tc.enter(scFutexWake)
	if err != nil {
		return 0, err
	}
	s, ls, err := open[*segment](tc.k, &ctx, seg, accModify, false)
	if err != nil {
		return 0, err
	}
	immutable := s.immutable
	ls.unlock()
	if immutable {
		return 0, ErrImmutable
	}
	key := futexKey{seg: s.id, offset: offset}
	fs := tc.k.futexShardFor(key)
	woken := 0
	var toWake []chan struct{}
	fs.mu.Lock()
	if q := fs.m[key]; q != nil {
		for woken < n && len(q.waiters) > 0 {
			toWake = append(toWake, q.waiters[0])
			q.waiters = q.waiters[1:]
			woken++
		}
		if len(q.waiters) == 0 {
			delete(fs.m, key)
		}
	}
	fs.mu.Unlock()
	for _, ch := range toWake {
		ch <- struct{}{}
	}
	return woken, nil
}
