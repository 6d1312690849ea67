package label

import "sync"

// Interning gives hot labels (thread labels, the default {1} object label,
// the {2} default clearance) one shared canonical backing array, so that
// equal interned labels satisfy Same and Equal short-circuits to a pointer
// comparison.  Interning is a cold-path operation performed when a label is
// created or installed (thread creation, self_set_label, gate entry);
// the hot-path comparisons then run on the shared representation.

// emptyLabels holds the canonical instances of the four pair-free labels
// {0}, {1}, {2}, {3}; New with no pairs always returns one of these.
var emptyLabels = [HiStar]Label{
	L0: newCanonical(L0, nil),
	L1: newCanonical(L1, nil),
	L2: newCanonical(L2, nil),
	L3: newCanonical(L3, nil),
}

func emptyLabel(def Level) Label { return emptyLabels[def] }

// maxInternedLabels bounds the interning table across all shards.  Interning
// is advisory — it only provides the Same fast path — so when label churn
// (e.g. a many-user web workload whose fresh per-user categories make every
// new thread label unique) fills a shard, the shard discards roughly half of
// its entries rather than clearing outright: labels interned before an
// eviction stay valid, they just stop being pointer-equal to labels interned
// after it, and the survivors keep their fast path.  The old single-table
// full clear caused eviction storms under sustained churn — every hot label
// lost its canonical instance at once and had to be re-interned through the
// write lock.
const maxInternedLabels = 1 << 16

// internShardCount shards the table by fingerprint so that unrelated labels
// do not contend on one RWMutex and an eviction only disturbs 1/64th of the
// interned population.
const internShardCount = 64

const maxInternedPerShard = maxInternedLabels / internShardCount

// internShard is one fingerprint-sharded slice of the interning table, keyed
// by fingerprint with exact verification, so a (vanishingly unlikely)
// fingerprint collision can never alias two distinct labels.
type internShard struct {
	mu        sync.RWMutex
	m         map[Fingerprint][]Label
	count     int
	evictions uint64
	_         [32]byte // keep shards off each other's cache lines
}

var internTable [internShardCount]internShard

func init() {
	for i := range internTable {
		internTable[i].m = make(map[Fingerprint][]Label)
	}
}

// internShardFor picks the shard for a fingerprint.  The fingerprint is
// already a 64-bit hash, so high bits select the shard directly.
func internShardFor(fp Fingerprint) *internShard {
	return &internTable[uint64(fp)>>(64-6)]
}

// evictLocked discards whole fingerprint buckets (in Go's randomized map
// iteration order) until the shard is at most half full.  Partial eviction
// keeps the other half of the shard's hot labels canonical instead of
// resetting the whole population.
func (s *internShard) evictLocked() {
	target := maxInternedPerShard / 2
	for fp, labels := range s.m {
		if s.count <= target {
			break
		}
		s.count -= len(labels)
		s.evictions += uint64(len(labels))
		delete(s.m, fp)
	}
}

// Intern returns the canonical shared instance of l: the first time a label
// value is interned its representation becomes the canonical one, and every
// later Intern of an equal label returns that same backing array.  Interned
// equal labels satisfy Same, making Equal a pointer comparison.  The zero
// Label and pair-free labels are already canonical and pass through without
// touching the table.
func Intern(l Label) Label {
	if len(l.pairs) == 0 {
		if l.IsZero() {
			return l
		}
		return emptyLabel(l.def)
	}
	fp := l.Fingerprint()
	s := internShardFor(fp)
	s.mu.RLock()
	for _, cand := range s.m[fp] {
		if cand.Equal(l) {
			s.mu.RUnlock()
			return cand
		}
	}
	s.mu.RUnlock()

	s.mu.Lock()
	defer s.mu.Unlock()
	for _, cand := range s.m[fp] {
		if cand.Equal(l) {
			return cand
		}
	}
	if s.count >= maxInternedPerShard {
		s.evictLocked()
	}
	s.m[fp] = append(s.m[fp], l)
	s.count++
	return l
}

// InternStats describes the interning table's occupancy and churn.
type InternStats struct {
	Count     int    // live interned labels across all shards
	Evictions uint64 // labels discarded by shard evictions since start
	Shards    int    // number of fingerprint shards
	MaxShard  int    // occupancy of the fullest shard (imbalance indicator)
}

// InternStatsSnapshot returns current interning table statistics.
func InternStatsSnapshot() InternStats {
	st := InternStats{Shards: internShardCount}
	for i := range internTable {
		s := &internTable[i]
		s.mu.RLock()
		st.Count += s.count
		st.Evictions += s.evictions
		if s.count > st.MaxShard {
			st.MaxShard = s.count
		}
		s.mu.RUnlock()
	}
	return st
}
