package label

import (
	"math/rand"
	"reflect"
	"sync"
	"testing"
	"testing/quick"
)

// genLabel builds a random label over a small shared pool of categories so
// that the lattice operations routinely interact on common categories.
func genLabel(r *rand.Rand, allowStar bool) Label {
	defaults := []Level{L0, L1, L2, L3}
	def := defaults[r.Intn(len(defaults))]
	n := r.Intn(5)
	pairs := make([]Pair, 0, n)
	for i := 0; i < n; i++ {
		c := Category(r.Intn(8) + 1)
		levels := []Level{L0, L1, L2, L3}
		if allowStar {
			levels = append(levels, Star)
		}
		pairs = append(pairs, P(c, levels[r.Intn(len(levels))]))
	}
	return New(def, pairs...)
}

// quickLabel wraps Label for testing/quick generation.
type quickLabel struct{ L Label }

// Generate implements quick.Generator.
func (quickLabel) Generate(r *rand.Rand, _ int) reflect.Value {
	return reflect.ValueOf(quickLabel{L: genLabel(r, false)})
}

// quickThreadLabel generates labels that may contain ⋆.
type quickThreadLabel struct{ L Label }

func (quickThreadLabel) Generate(r *rand.Rand, _ int) reflect.Value {
	return reflect.ValueOf(quickThreadLabel{L: genLabel(r, true)})
}

var quickCfg = &quick.Config{MaxCount: 2000}

func TestPropLeqReflexive(t *testing.T) {
	f := func(a quickLabel) bool { return a.L.Leq(a.L) }
	if err := quick.Check(f, quickCfg); err != nil {
		t.Error(err)
	}
}

func TestPropLeqAntisymmetric(t *testing.T) {
	f := func(a, b quickLabel) bool {
		if a.L.Leq(b.L) && b.L.Leq(a.L) {
			return a.L.Equal(b.L)
		}
		return true
	}
	if err := quick.Check(f, quickCfg); err != nil {
		t.Error(err)
	}
}

func TestPropLeqTransitive(t *testing.T) {
	f := func(a, b, c quickLabel) bool {
		if a.L.Leq(b.L) && b.L.Leq(c.L) {
			return a.L.Leq(c.L)
		}
		return true
	}
	if err := quick.Check(f, quickCfg); err != nil {
		t.Error(err)
	}
}

func TestPropJoinIsUpperBound(t *testing.T) {
	f := func(a, b quickLabel) bool {
		j := a.L.Join(b.L)
		return a.L.Leq(j) && b.L.Leq(j)
	}
	if err := quick.Check(f, quickCfg); err != nil {
		t.Error(err)
	}
}

func TestPropJoinIsLeast(t *testing.T) {
	f := func(a, b, c quickLabel) bool {
		// Any common upper bound c dominates the join.
		if a.L.Leq(c.L) && b.L.Leq(c.L) {
			return a.L.Join(b.L).Leq(c.L)
		}
		return true
	}
	if err := quick.Check(f, quickCfg); err != nil {
		t.Error(err)
	}
}

func TestPropJoinCommutativeAssociativeIdempotent(t *testing.T) {
	comm := func(a, b quickLabel) bool {
		return a.L.Join(b.L).Equal(b.L.Join(a.L))
	}
	assoc := func(a, b, c quickLabel) bool {
		return a.L.Join(b.L).Join(c.L).Equal(a.L.Join(b.L.Join(c.L)))
	}
	idem := func(a quickLabel) bool { return a.L.Join(a.L).Equal(a.L) }
	for name, f := range map[string]interface{}{"comm": comm, "assoc": assoc, "idem": idem} {
		if err := quick.Check(f, quickCfg); err != nil {
			t.Errorf("%s: %v", name, err)
		}
	}
}

func TestPropLeqIffJoinEqualsRHS(t *testing.T) {
	f := func(a, b quickLabel) bool {
		return a.L.Leq(b.L) == a.L.Join(b.L).Equal(b.L)
	}
	if err := quick.Check(f, quickCfg); err != nil {
		t.Error(err)
	}
}

func TestPropRaiseJLowerStarRoundTrip(t *testing.T) {
	f := func(a quickThreadLabel) bool {
		return a.L.RaiseJ().LowerStar().Equal(a.L)
	}
	if err := quick.Check(f, quickCfg); err != nil {
		t.Error(err)
	}
}

func TestPropMinObserveLabelIsSufficientAndMinimal(t *testing.T) {
	f := func(ta quickThreadLabel, ob quickLabel) bool {
		min := minObserveLabel(ta.L, ob.L)
		if !ta.L.Leq(min) {
			return false
		}
		return CanObserve(min, ob.L)
	}
	if err := quick.Check(f, quickCfg); err != nil {
		t.Error(err)
	}
}

func TestPropModifyImpliesObserve(t *testing.T) {
	f := func(ta quickThreadLabel, ob quickLabel) bool {
		if CanModify(ta.L, ob.L) {
			return CanObserve(ta.L, ob.L)
		}
		return true
	}
	if err := quick.Check(f, quickCfg); err != nil {
		t.Error(err)
	}
}

func TestPropCacheMatchesDirect(t *testing.T) {
	cache := NewCache(0)
	f := func(a, b quickThreadLabel) bool {
		return cache.Leq(a.L, b.L) == a.L.Leq(b.L) &&
			cache.CanObserve(a.L, b.L) == CanObserve(a.L, b.L) &&
			cache.CanModify(a.L, b.L) == CanModify(a.L, b.L)
	}
	if err := quick.Check(f, quickCfg); err != nil {
		t.Error(err)
	}
}

func TestPropFingerprintEqualLabelsAgree(t *testing.T) {
	f := func(a quickThreadLabel) bool {
		// Rebuilding the same label from explicit pairs must fingerprint
		// identically.
		pairs := make([]Pair, 0, a.L.NumExplicit())
		for _, c := range a.L.Explicit() {
			pairs = append(pairs, P(c, a.L.Get(c)))
		}
		rebuilt := New(a.L.Default(), pairs...)
		return rebuilt.Fingerprint() == a.L.Fingerprint()
	}
	if err := quick.Check(f, quickCfg); err != nil {
		t.Error(err)
	}
}

func TestPropParseRoundTrip(t *testing.T) {
	f := func(a quickThreadLabel) bool {
		parsed, err := Parse(a.L.String(), nil)
		if err != nil {
			return false
		}
		return parsed.Equal(a.L)
	}
	if err := quick.Check(f, quickCfg); err != nil {
		t.Error(err)
	}
}

// ---------------------------------------------------------------------------
// Reference-model equivalence: the canonical slice-backed implementation must
// agree with a naive map-based model on randomized labels.
// ---------------------------------------------------------------------------

// refLabel is the simple map-from-category-to-level reference model the
// original implementation used; it is deliberately naive.
type refLabel struct {
	def Level
	m   map[Category]Level
}

func refFrom(l Label) refLabel {
	r := refLabel{def: l.Default(), m: make(map[Category]Level)}
	for _, c := range l.Explicit() {
		r.m[c] = l.Get(c)
	}
	return r
}

func (r refLabel) get(c Category) Level {
	if lv, ok := r.m[c]; ok {
		return lv
	}
	return r.def
}

func (r refLabel) cats(other refLabel) map[Category]bool {
	out := make(map[Category]bool)
	for c := range r.m {
		out[c] = true
	}
	for c := range other.m {
		out[c] = true
	}
	return out
}

func refLeq(a, b refLabel) bool {
	if a.def > b.def {
		return false
	}
	for c := range a.cats(b) {
		if a.get(c) > b.get(c) {
			return false
		}
	}
	return true
}

func refCombine(a, b refLabel, op func(Level, Level) Level) refLabel {
	out := refLabel{def: op(a.def, b.def), m: make(map[Category]Level)}
	for c := range a.cats(b) {
		if lv := op(a.get(c), b.get(c)); lv != out.def {
			out.m[c] = lv
		}
	}
	return out
}

func (r refLabel) toLabel() Label {
	pairs := make([]Pair, 0, len(r.m))
	for c, lv := range r.m {
		pairs = append(pairs, P(c, lv))
	}
	return New(r.def, pairs...)
}

func TestRefModelLeqAgrees(t *testing.T) {
	f := func(a, b quickThreadLabel) bool {
		return a.L.Leq(b.L) == refLeq(refFrom(a.L), refFrom(b.L))
	}
	if err := quick.Check(f, quickCfg); err != nil {
		t.Error(err)
	}
}

func TestRefModelJoinMeetAgree(t *testing.T) {
	f := func(a, b quickThreadLabel) bool {
		join := refCombine(refFrom(a.L), refFrom(b.L), maxLevel).toLabel()
		return a.L.Join(b.L).Equal(join)
	}
	if err := quick.Check(f, quickCfg); err != nil {
		t.Error(err)
	}
}

func TestRefModelGetAgrees(t *testing.T) {
	f := func(a quickThreadLabel) bool {
		r := refFrom(a.L)
		for c := Category(0); c < 12; c++ {
			if a.L.Get(c) != r.get(c) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, quickCfg); err != nil {
		t.Error(err)
	}
}

func TestRefModelParseRoundTrip(t *testing.T) {
	f := func(a quickThreadLabel) bool {
		// The reference model rebuilt via New and the parse of the rendered
		// form must both equal the original.
		parsed, err := Parse(a.L.String(), nil)
		if err != nil {
			return false
		}
		return parsed.Equal(a.L) && refFrom(a.L).toLabel().Equal(a.L)
	}
	if err := quick.Check(f, quickCfg); err != nil {
		t.Error(err)
	}
}

// ---------------------------------------------------------------------------
// Canonical-representation invariants.
// ---------------------------------------------------------------------------

func TestPropCanonicalSortedNoDefault(t *testing.T) {
	f := func(a, b quickThreadLabel) bool {
		for _, l := range []Label{a.L.Join(b.L), a.L.RaiseJ(), a.L.LowerStar()} {
			pairs := l.Pairs()
			for i, p := range pairs {
				if p.Level == l.Default() {
					return false
				}
				if i > 0 && pairs[i-1].Category >= p.Category {
					return false
				}
			}
		}
		return true
	}
	if err := quick.Check(f, quickCfg); err != nil {
		t.Error(err)
	}
}

func TestPropStoredFingerprintMatchesRecomputed(t *testing.T) {
	f := func(a, b quickThreadLabel) bool {
		for _, l := range []Label{a.L, a.L.Join(b.L), a.L.With(Category(3), L3)} {
			if l.Fingerprint() != fingerprintCanonical(l.Default(), l.Pairs(), levelIdentity) {
				return false
			}
			if l.RaisedFingerprint() != l.RaiseJ().Fingerprint() {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, quickCfg); err != nil {
		t.Error(err)
	}
}

func TestPropCodecRoundTrip(t *testing.T) {
	f := func(a quickThreadLabel) bool {
		enc, err := a.L.MarshalBinary()
		if err != nil {
			return false
		}
		var dec Label
		if err := dec.UnmarshalBinary(enc); err != nil {
			return false
		}
		return dec.Equal(a.L) &&
			dec.Fingerprint() == a.L.Fingerprint() &&
			dec.RaisedFingerprint() == a.L.RaisedFingerprint()
	}
	if err := quick.Check(f, quickCfg); err != nil {
		t.Error(err)
	}
}

func TestPropInternSame(t *testing.T) {
	f := func(a quickThreadLabel) bool {
		i1 := Intern(a.L)
		rebuilt := New(a.L.Default(), a.L.Pairs()...)
		i2 := Intern(rebuilt)
		return Same(i1, i2) && i1.Equal(a.L)
	}
	if err := quick.Check(f, quickCfg); err != nil {
		t.Error(err)
	}
}

// ---------------------------------------------------------------------------
// Concurrency: hammer the sharded cache and the interning table from many
// goroutines (meaningful under -race).
// ---------------------------------------------------------------------------

func TestCacheShardedConcurrent(t *testing.T) {
	// A small bound forces constant per-shard eviction while goroutines race
	// on lookups; every cached answer must still agree with the direct one.
	cache := NewCache(256)
	r := rand.New(rand.NewSource(7))
	labels := make([]Label, 64)
	for i := range labels {
		labels[i] = genLabel(r, true)
	}
	var wg sync.WaitGroup
	for w := 0; w < 16; w++ {
		wg.Add(1)
		go func(seed int64) {
			defer wg.Done()
			r := rand.New(rand.NewSource(seed))
			for i := 0; i < 4000; i++ {
				a := labels[r.Intn(len(labels))]
				b := labels[r.Intn(len(labels))]
				if cache.Leq(a, b) != a.Leq(b) {
					t.Errorf("cached Leq disagreement for %v ⊑ %v", a, b)
					return
				}
				if cache.CanObserve(a, b) != CanObserve(a, b) {
					t.Errorf("cached CanObserve disagreement for %v / %v", a, b)
					return
				}
				if cache.CanModify(a, b) != CanModify(a, b) {
					t.Errorf("cached CanModify disagreement for %v / %v", a, b)
					return
				}
				if cache.LeqRaised(a, b) != a.RaiseJ().Leq(b.RaiseJ()) {
					t.Errorf("cached LeqRaised disagreement for %v / %v", a, b)
					return
				}
			}
		}(int64(w))
	}
	wg.Wait()
	st := cache.Stats()
	if st.Hits == 0 || st.Misses == 0 {
		t.Errorf("expected both hits and misses, got %+v", st)
	}
	if cache.Len() > 256 {
		t.Errorf("cache exceeded bound: %d entries", cache.Len())
	}
	if st.Evictions == 0 {
		t.Error("small cache under churn should have evicted per shard")
	}
}

func TestInternConcurrent(t *testing.T) {
	r := rand.New(rand.NewSource(11))
	labels := make([]Label, 32)
	for i := range labels {
		labels[i] = genLabel(r, true)
	}
	canon := make([]Label, len(labels))
	for i, l := range labels {
		canon[i] = Intern(l)
	}
	var wg sync.WaitGroup
	for w := 0; w < 16; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i, l := range labels {
				rebuilt := New(l.Default(), l.Pairs()...)
				if got := Intern(rebuilt); !Same(got, canon[i]) {
					t.Errorf("Intern returned a non-canonical instance for %v", l)
					return
				}
			}
		}()
	}
	wg.Wait()
}

// TestPropGateMinLeqMatchesMaterialized checks the allocation-free gate
// minimum-label comparison against the materialized reference form
// (lᴶ ⊔ gᴶ)⋆ ⊑ r for random thread labels, gate labels, and requests.
func TestPropGateMinLeqMatchesMaterialized(t *testing.T) {
	f := func(l, g quickThreadLabel, r quickThreadLabel) bool {
		want := l.L.RaiseJ().Join(g.L.RaiseJ()).LowerStar().Leq(r.L)
		return GateMinLeq(l.L, g.L, r.L) == want
	}
	if err := quick.Check(f, quickCfg); err != nil {
		t.Error(err)
	}
}

// TestGateMinLeqZeroAlloc pins the allocation-free property the gate-entry
// hot path depends on.
func TestGateMinLeqZeroAlloc(t *testing.T) {
	l := New(L1, P(3, Star), P(5, L2))
	g := New(L1, P(4, Star), P(6, L3))
	r := New(L1, P(5, L2), P(6, L3))
	if !GateMinLeq(l, g, r) {
		t.Fatal("expected GateMinLeq to hold for this triple")
	}
	allocs := testing.AllocsPerRun(100, func() { GateMinLeq(l, g, r) })
	if allocs != 0 {
		t.Errorf("GateMinLeq allocates %.1f times, want 0", allocs)
	}
}
