package label

import (
	"math/rand"
	"reflect"
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

// refRaiseJ is the reference model's superscript-J form: every ⋆ read as J.
func refRaiseJ(r refLabel) refLabel {
	raise := func(lv Level) Level {
		if lv == Star {
			return HiStar
		}
		return lv
	}
	out := refLabel{def: raise(r.def), m: make(map[Category]Level)}
	for c, lv := range r.m {
		out.m[c] = raise(lv)
	}
	return out
}

// TestPropRaisedChecksMatchMaterialized pins the merge that reads a side as
// its superscript-J form on the fly: CanObserve, CanModify and LeqRaised must
// give what the materialized Lᴶ gives, and what the naive model gives.  No
// valid thread label has a ⋆ default, but the merge reads defaults through
// the same table as entries, so ⋆-default labels are checked too.
func TestPropRaisedChecksMatchMaterialized(t *testing.T) {
	check := func(thr, obj Label) bool {
		rt, ro := refFrom(thr), refFrom(obj)
		observe := obj.Leq(thr.RaiseJ())
		modify := thr.Leq(obj) && observe
		raised := obj.RaiseJ().Leq(thr.RaiseJ())
		return CanObserve(thr, obj) == observe &&
			observe == refLeq(ro, refRaiseJ(rt)) &&
			CanModify(thr, obj) == modify &&
			modify == (refLeq(rt, ro) && refLeq(ro, refRaiseJ(rt))) &&
			LeqRaised(obj, thr) == raised &&
			raised == refLeq(refRaiseJ(ro), refRaiseJ(rt))
	}
	f := func(thr, obj quickThreadLabel) bool {
		starDef := New(Star, thr.L.Pairs()...)
		return check(thr.L, obj.L) && check(starDef, obj.L) && check(obj.L, starDef)
	}
	if err := quick.Check(f, quickCfg); err != nil {
		t.Error(err)
	}
}

// TestRaisedChecksZeroAlloc pins that a thread owning categories costs a
// raised check no copy of its label.
func TestRaisedChecksZeroAlloc(t *testing.T) {
	thr := New(L1, P(3, Star), P(5, Star), P(6, L2))
	obj := New(L1, P(3, L3), P(6, L2))
	if !CanObserve(thr, obj) || !CanModify(thr, obj) || !LeqRaised(obj, thr) {
		t.Fatal("expected every raised check to hold for this pair")
	}
	for name, f := range map[string]func(){
		"CanObserve": func() { CanObserve(thr, obj) },
		"CanModify":  func() { CanModify(thr, obj) },
		"LeqRaised":  func() { LeqRaised(obj, thr) },
	} {
		if allocs := testing.AllocsPerRun(100, f); allocs != 0 {
			t.Errorf("%s allocates %.1f times, want 0", name, allocs)
		}
	}
}

func TestRefModelJoinMeetAgree(t *testing.T) {
	f := func(a, b quickThreadLabel) bool {
		join := refCombine(refFrom(a.L), refFrom(b.L), func(x, y Level) Level { return max(x, y) }).toLabel()
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

func TestPropCodecRoundTrip(t *testing.T) {
	f := func(a quickThreadLabel) bool {
		dec, rest, err := DecodeBinary(a.L.AppendBinary(nil))
		return err == nil && len(rest) == 0 && dec.Equal(a.L)
	}
	if err := quick.Check(f, quickCfg); err != nil {
		t.Error(err)
	}
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
