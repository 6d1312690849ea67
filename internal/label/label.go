// Package label implements the Asbestos-style information flow labels used
// by the HiStar kernel (Zeldovich et al., OSDI 2006, Section 2).
//
// A label is a function from categories to taint levels.  All but a small
// number of categories map to a default level (usually 1); the label stores
// only the exceptions.  Levels are ordered
//
//	⋆ < 0 < 1 < 2 < 3 < J
//
// where ⋆ ("Star") denotes ownership/untainting privilege and J ("HiStar")
// is the same ownership level treated as high during reads.  J never appears
// in stored labels; it exists only transiently during access checks.
//
// # Canonical representation
//
// A Label is immutable and canonical: the explicit category/level pairs are
// kept in a slice sorted by ascending category, with no duplicate categories
// and no entry whose level equals the default.  Two labels denoting the same
// function therefore have identical canonical forms, so Equal is a
// default-level comparison plus a pairwise slice comparison.
//
// Because the representation is canonical, Leq and Join are linear-time
// merges over the two sorted slices: Leq allocates nothing, and Join
// allocates only the single output slice.  The raised checks (CanObserve,
// CanModify, LeqRaised) run the same merge with one or both sides read as
// their superscript-J form on the fly, so they never build Lᴶ and allocate
// nothing either.  Every check is a comparison; nothing is memoized.
//
// The package provides the ⊑ partial order (Leq), the lattice join ⊔ (Join),
// the superscript-J and superscript-⋆ operators that shift ownership between
// its low and high readings, and the derived access checks used throughout
// the kernel (CanObserve, CanModify, CanAllocate, LeqRaised).
package label

import (
	"fmt"
	"sort"
	"strings"
)

// Level is a taint level in a label.
type Level uint8

// Taint levels, in increasing order.  Star compares below every numeric
// level and HiStar above every numeric level, implementing the paper's
// ⋆ < 0 < 1 < 2 < 3 < J ordering.
const (
	Star   Level = iota // ⋆: ownership / untainting privilege (low reading)
	L0                  // 0: cannot be written/modified by default
	L1                  // 1: default level, no restriction
	L2                  // 2: cannot be untainted/exported by default
	L3                  // 3: cannot be read/observed by default
	HiStar              // J: ownership treated as high; never stored in labels
)

// String renders a level the way the paper writes it.
func (l Level) String() string {
	switch l {
	case Star:
		return "*"
	case HiStar:
		return "J"
	case L0, L1, L2, L3:
		return fmt.Sprintf("%d", int(l)-1)
	default:
		return fmt.Sprintf("Level(%d)", uint8(l))
	}
}

// Valid reports whether l is one of the six defined levels.
func (l Level) Valid() bool { return l <= HiStar }

// Numeric reports whether l is one of the four numeric levels 0..3.
func (l Level) Numeric() bool { return l >= L0 && l <= L3 }

// Label is an immutable mapping from categories to levels with a default
// level for all unlisted categories.  The explicit pairs are stored in
// canonical form (sorted by category, levels differing from the default).
// The zero value denotes the empty ⋆-default label and is used by callers as
// a "use the default label" sentinel; use New to build meaningful labels.
// Labels are value types: operations return new labels and never mutate
// their receivers, so a Label may be shared freely between goroutines.
type Label struct {
	def   Level
	pairs []Pair // canonical: ascending category, no level == def
}

// Pair is an explicit category/level entry used when constructing labels.
type Pair struct {
	Category Category
	Level    Level
}

// P is shorthand for constructing a Pair.
func P(c Category, l Level) Pair { return Pair{Category: c, Level: l} }

// newCanonical wraps an already-canonical pair slice (sorted by ascending
// category, unique categories, no level equal to def) into a Label.  The
// slice is owned by the new label and must not be mutated afterwards.
func newCanonical(def Level, pairs []Pair) Label {
	if len(pairs) == 0 {
		pairs = nil
	}
	return Label{def: def, pairs: pairs}
}

// New returns a label with the given default level and explicit
// category/level pairs.  Pairs whose level equals the default are elided and
// duplicate categories keep the last occurrence, so that equal labels have
// identical canonical representations.
func New(def Level, pairs ...Pair) Label {
	if !def.Valid() || def == HiStar {
		panic(fmt.Sprintf("label: invalid default level %v", def))
	}
	for _, p := range pairs {
		if !p.Level.Valid() {
			panic(fmt.Sprintf("label: invalid level %v for category %v", p.Level, p.Category))
		}
	}
	if len(pairs) == 0 {
		return Label{def: def}
	}
	buf := make([]Pair, len(pairs))
	copy(buf, pairs)
	sort.SliceStable(buf, func(i, j int) bool { return buf[i].Category < buf[j].Category })
	// Collapse duplicate categories (last occurrence wins, matching the old
	// map semantics) and elide default-level entries.
	out := buf[:0]
	for i := 0; i < len(buf); i++ {
		if i+1 < len(buf) && buf[i+1].Category == buf[i].Category {
			continue // a later entry for the same category supersedes this one
		}
		if buf[i].Level != def {
			out = append(out, buf[i])
		}
	}
	return newCanonical(def, out)
}

// Default returns the label's default level.
func (l Label) Default() Level { return l.def }

// Get returns the level of category c.
func (l Label) Get(c Category) Level {
	if i, ok := l.find(c); ok {
		return l.pairs[i].Level
	}
	return l.def
}

// find binary-searches the canonical pairs for category c.
func (l Label) find(c Category) (int, bool) {
	lo, hi := 0, len(l.pairs)
	for lo < hi {
		mid := int(uint(lo+hi) >> 1)
		if l.pairs[mid].Category < c {
			lo = mid + 1
		} else {
			hi = mid
		}
	}
	return lo, lo < len(l.pairs) && l.pairs[lo].Category == c
}

// Explicit returns the categories whose level differs from the default, in
// ascending category order.
func (l Label) Explicit() []Category {
	out := make([]Category, len(l.pairs))
	for i, p := range l.pairs {
		out[i] = p.Category
	}
	return out
}

// Pairs returns a copy of the canonical explicit entries, in ascending
// category order.
func (l Label) Pairs() []Pair {
	return append([]Pair(nil), l.pairs...)
}

// NumExplicit returns the number of categories mapped away from the default.
func (l Label) NumExplicit() int { return len(l.pairs) }

// IsZero reports whether l is the zero Label (the "use the default label"
// sentinel accepted by the Unix library file calls).
func (l Label) IsZero() bool { return l.def == Star && len(l.pairs) == 0 }

// With returns a copy of l with category c set to level lv.
func (l Label) With(c Category, lv Level) Label {
	if !lv.Valid() {
		panic(fmt.Sprintf("label: invalid level %v", lv))
	}
	i, ok := l.find(c)
	switch {
	case ok && lv == l.def:
		// Remove the explicit entry.
		out := make([]Pair, 0, len(l.pairs)-1)
		out = append(out, l.pairs[:i]...)
		out = append(out, l.pairs[i+1:]...)
		return newCanonical(l.def, out)
	case ok:
		if l.pairs[i].Level == lv {
			return l
		}
		out := append([]Pair(nil), l.pairs...)
		out[i].Level = lv
		return newCanonical(l.def, out)
	case lv == l.def:
		return l
	default:
		out := make([]Pair, 0, len(l.pairs)+1)
		out = append(out, l.pairs[:i]...)
		out = append(out, P(c, lv))
		out = append(out, l.pairs[i:]...)
		return newCanonical(l.def, out)
	}
}

// Without returns a copy of l with category c reset to the default level.
func (l Label) Without(c Category) Label {
	i, ok := l.find(c)
	if !ok {
		return l
	}
	out := make([]Pair, 0, len(l.pairs)-1)
	out = append(out, l.pairs[:i]...)
	out = append(out, l.pairs[i+1:]...)
	return newCanonical(l.def, out)
}

// Equal reports whether two labels denote the same function.  Because the
// representation is canonical, this is a default-level comparison plus a
// pairwise slice comparison.
func (l Label) Equal(m Label) bool {
	if l.def != m.def || len(l.pairs) != len(m.pairs) {
		return false
	}
	for i, p := range l.pairs {
		if m.pairs[i] != p {
			return false
		}
	}
	return true
}

// hasLevel reports whether any explicit entry carries level lv.
func (l Label) hasLevel(lv Level) bool {
	for _, p := range l.pairs {
		if p.Level == lv {
			return true
		}
	}
	return false
}

// Owns reports whether the label maps category c to ⋆.
func (l Label) Owns(c Category) bool { return l.Get(c) == Star }

// RaiseJ returns the superscript-J form Lᴶ: every ⋆ becomes J.  Used when
// the owning thread is reading, so ownership is treated as high.  Labels
// with no ownership are returned unchanged without allocating.
func (l Label) RaiseJ() Label {
	if l.def != Star && !l.hasLevel(Star) {
		return l
	}
	return l.mapLevels(levelRaiseJ)
}

// LowerStar returns the superscript-⋆ form L⋆: every J becomes ⋆.  Used to
// translate a join result back into a storable label.  Labels with no J
// entries are returned unchanged without allocating.
func (l Label) LowerStar() Label {
	if l.def != HiStar && !l.hasLevel(HiStar) {
		return l
	}
	return l.mapLevels(levelLowerStar)
}

func levelRaiseJ(lv Level) Level {
	if lv == Star {
		return HiStar
	}
	return lv
}

func levelLowerStar(lv Level) Level {
	if lv == HiStar {
		return Star
	}
	return lv
}

// mapLevels applies f pointwise.  Mapping never reorders categories, so the
// result stays sorted; entries whose mapped level equals the mapped default
// are elided to restore canonical form.
func (l Label) mapLevels(f func(Level) Level) Label {
	def := f(l.def)
	out := make([]Pair, 0, len(l.pairs))
	for _, p := range l.pairs {
		if lv := f(p.Level); lv != def {
			out = append(out, P(p.Category, lv))
		}
	}
	return newCanonical(def, out)
}

// reading is how a merge reads one side's levels: as stored, or as the
// superscript-J form (⋆ read as J).  Looking each level up in it is what lets
// a check compare against Lᴶ without building Lᴶ.  It spans every uint8, so
// the lookup needs no bounds check.
type reading [256]Level

var asStored, asRaised = readings()

func readings() (stored, raised reading) {
	for i := range stored {
		stored[i] = Level(i)
	}
	raised = stored
	raised[Star] = HiStar
	return stored, raised
}

// leq is the ⊑ merge over the two canonical slices with each side's levels
// read through its reading.  An entry whose read level equals its side's read
// default compares exactly as the default would, so the merge needs no
// re-canonicalized copy.
func leq(l Label, lr *reading, m Label, mr *reading) bool {
	ldef, mdef := lr[l.def], mr[m.def]
	if ldef > mdef {
		return false
	}
	lp, mp := l.pairs, m.pairs
	i, j := 0, 0
	for i < len(lp) && j < len(mp) {
		switch {
		case lp[i].Category < mp[j].Category:
			if lr[lp[i].Level] > mdef {
				return false
			}
			i++
		case lp[i].Category > mp[j].Category:
			if ldef > mr[mp[j].Level] {
				return false
			}
			j++
		default:
			if lr[lp[i].Level] > mr[mp[j].Level] {
				return false
			}
			i++
			j++
		}
	}
	for ; i < len(lp); i++ {
		if lr[lp[i].Level] > mdef {
			return false
		}
	}
	for ; j < len(mp); j++ {
		if ldef > mr[mp[j].Level] {
			return false
		}
	}
	return true
}

// Leq reports the ⊑ relation: l ⊑ m iff for every category c,
// l(c) ≤ m(c) in the order ⋆ < 0 < 1 < 2 < 3 < J.  It is a single linear
// merge over the two canonical slices and allocates nothing.
func (l Label) Leq(m Label) bool { return leq(l, &asStored, m, &asStored) }

// LeqRaised reports lᴶ ⊑ mᴶ, the rule under which a thread labeled m may
// read the (mutable) label l of another thread, without building either
// raised form.
func LeqRaised(l, m Label) bool { return leq(l, &asRaised, m, &asRaised) }

// Join returns the least upper bound l ⊔ m: pointwise maximum of levels.
// It is one pass over the two sorted slices, allocating only the output.
func (l Label) Join(m Label) Label {
	def := maxLevel(l.def, m.def)
	lp, mp := l.pairs, m.pairs
	out := make([]Pair, 0, len(lp)+len(mp))
	emit := func(c Category, lv Level) {
		if lv != def {
			out = append(out, P(c, lv))
		}
	}
	i, j := 0, 0
	for i < len(lp) && j < len(mp) {
		switch {
		case lp[i].Category < mp[j].Category:
			emit(lp[i].Category, maxLevel(lp[i].Level, m.def))
			i++
		case lp[i].Category > mp[j].Category:
			emit(mp[j].Category, maxLevel(l.def, mp[j].Level))
			j++
		default:
			emit(lp[i].Category, maxLevel(lp[i].Level, mp[j].Level))
			i++
			j++
		}
	}
	for ; i < len(lp); i++ {
		emit(lp[i].Category, maxLevel(lp[i].Level, m.def))
	}
	for ; j < len(mp); j++ {
		emit(mp[j].Category, maxLevel(l.def, mp[j].Level))
	}
	return newCanonical(def, out)
}

func maxLevel(a, b Level) Level {
	if a > b {
		return a
	}
	return b
}

// String renders the label in the paper's notation, e.g. {c7*, c423, 1}:
// a category prints as cN, N its identifier, then its level.
func (l Label) String() string {
	var b strings.Builder
	b.WriteByte('{')
	for _, p := range l.pairs {
		fmt.Fprintf(&b, "c%d%s, ", uint64(p.Category), p.Level.String())
	}
	b.WriteString(l.def.String())
	b.WriteByte('}')
	return b.String()
}

// ---------------------------------------------------------------------------
// Derived access checks (Section 2.2 and Section 3 of the paper).
// ---------------------------------------------------------------------------

// CanObserve reports whether a thread labeled thread may observe (read) an
// object labeled obj: obj ⊑ threadᴶ ("no read up").
func CanObserve(thread, obj Label) bool { return leq(obj, &asStored, thread, &asRaised) }

// CanModify reports whether a thread labeled thread may modify an object
// labeled obj, which in HiStar implies observing it:
// thread ⊑ obj ⊑ threadᴶ ("no write down").
func CanModify(thread, obj Label) bool { return thread.Leq(obj) && CanObserve(thread, obj) }

// CanAllocate reports whether a thread with label thread and clearance clr
// may create an object with label obj: thread ⊑ obj ⊑ clr.
func CanAllocate(thread, clr, obj Label) bool {
	return thread.Leq(obj) && obj.Leq(clr)
}

// gateMinLevel is the pointwise level of the gate-entry minimum label
// (lᴶ ⊔ gᴶ)⋆ for a category at level lt in the thread label and lg in the
// gate label: ownership on either side survives as ⋆, otherwise the levels
// combine as a plain max.
func gateMinLevel(lt, lg Level) Level {
	return levelLowerStar(maxLevel(levelRaiseJ(lt), levelRaiseJ(lg)))
}

// GateMinLeq reports whether (lᴶ ⊔ gᴶ)⋆ ⊑ r, the minimum-label check of
// gate entry (Section 3.5: l is the invoking thread's label LT, g the gate
// label LG, r the requested label LR).  It computes the pointwise comparison
// directly as a three-way merge over the canonical slices, so — unlike
// materializing RaiseJ/Join/LowerStar — it allocates nothing.  Note the
// check does not decompose into l ⊑ r ∧ g ⊑ r: LowerStar is not monotone,
// so the combined form must be compared pointwise.
func GateMinLeq(l, g, r Label) bool {
	if gateMinLevel(l.def, g.def) > r.def {
		return false
	}
	lp, gp, rp := l.pairs, g.pairs, r.pairs
	i, j, k := 0, 0, 0
	for i < len(lp) || j < len(gp) || k < len(rp) {
		// Lowest category among the three heads.
		var c Category
		have := false
		if i < len(lp) {
			c, have = lp[i].Category, true
		}
		if j < len(gp) && (!have || gp[j].Category < c) {
			c, have = gp[j].Category, true
		}
		if k < len(rp) && (!have || rp[k].Category < c) {
			c = rp[k].Category
		}
		lt, lg, lr := l.def, g.def, r.def
		if i < len(lp) && lp[i].Category == c {
			lt = lp[i].Level
			i++
		}
		if j < len(gp) && gp[j].Category == c {
			lg = gp[j].Level
			j++
		}
		if k < len(rp) && rp[k].Category == c {
			lr = rp[k].Level
			k++
		}
		if gateMinLevel(lt, lg) > lr {
			return false
		}
	}
	return true
}

// ValidObjectLabel reports whether l is acceptable as the label of a
// non-thread, non-gate kernel object: no ⋆ or J entries anywhere.
func ValidObjectLabel(l Label) bool {
	if l.def == Star || l.def == HiStar {
		return false
	}
	return !l.hasLevel(Star) && !l.hasLevel(HiStar)
}

// ValidThreadLabel reports whether l is acceptable as a thread or gate
// label: ⋆ entries are allowed, J entries are not.
func ValidThreadLabel(l Label) bool {
	if l.def == HiStar || l.def == Star {
		// A default of ⋆ would mean owning every category ever allocated,
		// which the kernel never permits.
		return false
	}
	return !l.hasLevel(HiStar)
}

// ValidClearance reports whether c is acceptable as a clearance: numeric
// levels only (a clearance bounds taint; ownership lives in the label).
func ValidClearance(c Label) bool {
	if !c.def.Numeric() {
		return false
	}
	for _, p := range c.pairs {
		// Clearance entries of ⋆ never arise in the paper; reject them to
		// keep invariants simple.
		if !p.Level.Numeric() {
			return false
		}
	}
	return true
}

// CacheStats reads zeros; it stays only until the benchmark drops its label.* cache rows (ROADMAP item 19).
type CacheStats struct{ Hits, Misses, Evictions uint64 }

// InternStats reads zeros; it stays only until the benchmark drops its label.* cache rows (ROADMAP item 19).
type InternStats struct {
	Count     int
	Evictions uint64
}

// InternStatsSnapshot returns zeros; it stays only until the benchmark drops its label.* cache rows (ROADMAP item 19).
func InternStatsSnapshot() InternStats { return InternStats{} }
