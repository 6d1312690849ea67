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
		if err := s.PutLabeled(id, taint, payload); err != nil {
			b.Fatal(err)
		}
		if err := s.SyncObject(id); err != nil {
			b.Fatal(err)
		}
	}
	b.StopTimer()
	st := s.Stats()
	b.ReportMetric(float64(st.LabelBytesLogged)/float64(b.N), "lbl-bytes/op")
}

// BenchmarkRecovery measures Open on an image whose write-ahead log holds
// labeled records for every object: superblock read, snapshot decode, log
// replay with label restore, and fingerprint-index rebuild.
func BenchmarkRecovery(b *testing.B) {
	for _, n := range []int{100, 1000} {
		b.Run(fmt.Sprintf("objects=%d", n), func(b *testing.B) {
			s, d := benchStore(b)
			payload := make([]byte, 1024)
			for i := 0; i < n; i++ {
				lbl := label.New(label.L1, label.P(label.Category(uint64(i%16+1)), label.L3))
				if err := s.PutLabeled(uint64(i), lbl, payload); err != nil {
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

// ---------------------------------------------------------------------------
// Store scaling: parallel SyncObject throughput over the sharded cache and
// the group committer.  Eight workers over disjoint id ranges hammer
// Put+SyncObject; the sharded store batches their log commits (assert: WAL
// commits per sync < 1).  BenchmarkSyncSerial is the same op pair from one
// goroutine, for the per-op baseline.
// ---------------------------------------------------------------------------

func BenchmarkSyncParallel(b *testing.B) {
	d := disk.New(disk.Params{Sectors: 1 << 19, WriteCache: true}, &vclock.Clock{})
	s, err := Format(d, Options{LogSize: 64 << 20})
	if err != nil {
		b.Fatal(err)
	}
	payload := make([]byte, 1024)
	// Exactly 8 worker goroutines regardless of GOMAXPROCS, sharing b.N ops
	// through one counter, so the result is measured at the same
	// concurrency level on every host (the kernel's parallel syscall
	// benchmark uses the same shape).
	const nWorkers = 8
	var (
		wg sync.WaitGroup
		n  atomic.Int64
	)
	b.ResetTimer()
	for w := 0; w < nWorkers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			base := uint64(w) << 32 // disjoint id ranges per worker
			for i := n.Add(1); i <= int64(b.N); i = n.Add(1) {
				id := base + uint64(i)%512
				if err := s.Put(id, payload); err != nil {
					b.Error(err)
					return
				}
				if err := s.SyncObject(id); err != nil {
					b.Error(err)
					return
				}
			}
		}(w)
	}
	wg.Wait()
	b.StopTimer()
	st := s.Stats()
	if st.ObjectSyncs > 0 {
		b.ReportMetric(float64(s.WALStats().Commits)/float64(st.ObjectSyncs), "commits/sync")
	}
	if gs := s.GroupCommitStats(); gs.Batches > 0 {
		b.ReportMetric(float64(gs.Records)/float64(gs.Batches), "recs/batch")
	}
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
