package store

import (
	"fmt"
	"sync"
	"sync/atomic"
	"testing"

	"histar/internal/disk"
	"histar/internal/label"
	"histar/internal/vclock"
)

func benchStore(b *testing.B) (*Store, *disk.Disk) {
	b.Helper()
	d := disk.New(disk.Params{Sectors: 1 << 19, WriteCache: true}, &vclock.Clock{}) // 256 MB
	s, err := Format(d, Options{LogSize: 64 << 20})
	if err != nil {
		b.Fatal(err)
	}
	return s, d
}

// BenchmarkSyncObjectLabeled measures the per-object sync fast path with the
// label riding in the log record: one PutLabeled plus one WAL commit.
func BenchmarkSyncObjectLabeled(b *testing.B) {
	s, _ := benchStore(b)
	taint := label.New(label.L1,
		label.P(label.Category(7), label.L3), label.P(label.Category(9), label.L0))
	payload := make([]byte, 1024)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		id := uint64(i % 512)
		if err := s.PutLabeled(id, taint, payload, 0, whole); err != nil {
			b.Fatal(err)
		}
		if err := s.SyncObject(id); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkPutRange measures one kernel push of an 8 KiB range into a
// resident 4 MiB object.  Its B/op is what the put copies into fresh memory:
// near zero when it patches the resident copy, 4 MiB when it replaces it.
func BenchmarkPutRange(b *testing.B) {
	s, _ := benchStore(b)
	lbl := label.New(label.L1)
	data := make([]byte, 4<<20)
	if err := s.PutLabeled(1, lbl, data, 0, whole); err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.SetBytes(8192)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		off := i * 8192 % len(data)
		data[off]++
		if err := s.PutLabeled(1, lbl, data, off, off+8192); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkRecovery measures Open on an image whose write-ahead log holds
// labeled records for every object: superblock read, snapshot decode, log
// replay with label restore.
func BenchmarkRecovery(b *testing.B) {
	for _, n := range []int{100, 1000} {
		b.Run(fmt.Sprintf("objects=%d", n), func(b *testing.B) {
			s, d := benchStore(b)
			payload := make([]byte, 1024)
			for i := 0; i < n; i++ {
				lbl := label.New(label.L1, label.P(label.Category(uint64(i%16+1)), label.L3))
				if err := s.PutLabeled(uint64(i), lbl, payload, 0, whole); err != nil {
					b.Fatal(err)
				}
				if err := s.SyncObject(uint64(i)); err != nil {
					b.Fatal(err)
				}
			}
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				s2, err := Open(d, Options{LogSize: 64 << 20})
				if err != nil {
					b.Fatal(err)
				}
				b.StopTimer()
				for id := uint64(0); id < uint64(n); id++ {
					if _, has := s2.Label(id); !has {
						b.Fatalf("object %d recovered without its label", id)
					}
				}
				b.StartTimer()
			}
		})
	}
}

// BenchmarkCheckpointDirty measures one checkpoint of a store holding
// objects=N labelled objects of which dirty=D were put again since the last
// one: what an fsync of a directory costs the store.  The seal and the object
// map's merge walk only the D changed entries, so ns/op should stay flat in
// N apart from the metadata image, which is written whole (32 bytes per
// object plus its label) and checksummed.
func BenchmarkCheckpointDirty(b *testing.B) {
	for _, n := range []int{1000, 10000, 50000} {
		for _, dirty := range []int{1, 100} {
			b.Run(fmt.Sprintf("objects=%d/dirty=%d", n, dirty), func(b *testing.B) {
				s, _ := benchStore(b)
				lbl := label.New(label.L1, label.P(label.Category(7), label.L3))
				payload := make([]byte, 256)
				for id := uint64(0); id < uint64(n); id++ {
					if err := s.PutLabeled(id, lbl, payload, 0, len(payload)); err != nil {
						b.Fatal(err)
					}
				}
				if err := s.Checkpoint(); err != nil {
					b.Fatal(err)
				}
				b.ResetTimer()
				for i := 0; i < b.N; i++ {
					for j := 0; j < dirty; j++ {
						id := uint64((i*dirty + j) * 7919 % n) // spread over the id space
						if err := s.PutLabeled(id, lbl, payload, 0, len(payload)); err != nil {
							b.Fatal(err)
						}
					}
					if err := s.Checkpoint(); err != nil {
						b.Fatal(err)
					}
				}
			})
		}
	}
}

// ---------------------------------------------------------------------------
// Store concurrency: parallel clients against the store's one lock.
// BenchmarkSyncParallel runs Put+SyncObject from 1, 4 and 16 workers over
// disjoint id ranges; the group committer batches their log commits
// (commits/sync < 1 once workers overlap).  BenchmarkGetParallel runs clean
// Gets, each a verified home-extent read under mu, from 16 workers.
// BenchmarkSyncSerial is the op pair from one goroutine, for the per-op
// baseline.
// ---------------------------------------------------------------------------

// runWorkers shares b.N ops among exactly n goroutines through one counter,
// regardless of GOMAXPROCS, so a case measures the same concurrency level on
// every host (the kernel's parallel syscall benchmark uses the same shape).
// op gets the worker and the op's sequence number.
func runWorkers(b *testing.B, n int, op func(w int, i int64) error) {
	var (
		wg   sync.WaitGroup
		next atomic.Int64
	)
	b.ResetTimer()
	for w := 0; w < n; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := next.Add(1); i <= int64(b.N); i = next.Add(1) {
				if err := op(w, i); err != nil {
					b.Error(err)
					return
				}
			}
		}(w)
	}
	wg.Wait()
	b.StopTimer()
}

func BenchmarkSyncParallel(b *testing.B) {
	for _, workers := range []int{1, 4, 16} {
		b.Run(fmt.Sprintf("workers=%d", workers), func(b *testing.B) {
			s, _ := benchStore(b)
			payload := make([]byte, 1024)
			runWorkers(b, workers, func(w int, i int64) error {
				id := uint64(w)<<32 + uint64(i)%512 // disjoint id ranges per worker
				if err := s.Put(id, payload); err != nil {
					return err
				}
				return s.SyncObject(id)
			})
			st := s.Stats()
			if st.ObjectSyncs > 0 {
				b.ReportMetric(float64(s.WALStats().Commits)/float64(st.ObjectSyncs), "commits/sync")
			}
		})
	}
}

func BenchmarkGetParallel(b *testing.B) {
	s, _ := benchStore(b)
	payload := make([]byte, 1024)
	for id := uint64(0); id < 512; id++ {
		if err := s.Put(id, payload); err != nil {
			b.Fatal(err)
		}
	}
	if err := s.Checkpoint(); err != nil {
		b.Fatal(err)
	}
	runWorkers(b, 16, func(_ int, i int64) error {
		_, err := s.Get(uint64(i) % 512)
		return err
	})
}

func BenchmarkSyncSerial(b *testing.B) {
	s, _ := benchStore(b)
	payload := make([]byte, 1024)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		id := uint64(i % 512)
		if err := s.Put(id, payload); err != nil {
			b.Fatal(err)
		}
		if err := s.SyncObject(id); err != nil {
			b.Fatal(err)
		}
	}
	b.StopTimer()
	st := s.Stats()
	if st.ObjectSyncs > 0 {
		b.ReportMetric(float64(s.WALStats().Commits)/float64(st.ObjectSyncs), "commits/sync")
	}
}
