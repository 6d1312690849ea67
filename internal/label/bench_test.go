package label

import (
	"math/rand"
	"testing"
)

// Benchmarks for the canonical label representation and its checks:
//
//	go test -bench=. -benchmem ./internal/label

func benchLabels(n int, allowStar bool) []Label {
	r := rand.New(rand.NewSource(42))
	out := make([]Label, n)
	for i := range out {
		out[i] = genLabel(r, allowStar)
	}
	return out
}

func BenchmarkLeqDirect(b *testing.B) {
	labels := benchLabels(64, false)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		a := labels[i%len(labels)]
		m := labels[(i*7+1)%len(labels)]
		_ = a.Leq(m)
	}
}

func BenchmarkCanObserveOwner(b *testing.B) {
	// The thread owns two categories, so the check reads it as its
	// superscript-J form; it must still allocate nothing.
	thr := New(L1, P(Category(1), Star), P(Category(2), L3), P(Category(4), Star))
	obj := New(L1, P(Category(2), L3))
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		benchSink = CanObserve(thr, obj)
	}
}

var benchSink bool

func BenchmarkJoin(b *testing.B) {
	labels := benchLabels(64, false)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		a := labels[i%len(labels)]
		m := labels[(i*13+3)%len(labels)]
		_ = a.Join(m)
	}
}

func BenchmarkRaiseJNoStar(b *testing.B) {
	l := New(L1, P(Category(1), L3), P(Category(2), L0))
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		_ = l.RaiseJ()
	}
}

func BenchmarkNew(b *testing.B) {
	pairs := []Pair{P(Category(9), L3), P(Category(4), L0), P(Category(7), Star)}
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		_ = New(L1, pairs...)
	}
}
