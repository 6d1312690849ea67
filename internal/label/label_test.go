package label

import (
	"testing"
)

// catN returns a deterministic fake category for tests.
func catN(n uint64) Category { return Category(n) }

func TestLevelOrdering(t *testing.T) {
	order := []Level{Star, L0, L1, L2, L3, HiStar}
	for i, a := range order {
		for j, b := range order {
			if (a < b) != (i < j) {
				t.Errorf("level ordering broken: %v < %v should be %v", a, b, i < j)
			}
		}
	}
}

func TestLevelString(t *testing.T) {
	cases := map[Level]string{Star: "*", L0: "0", L1: "1", L2: "2", L3: "3", HiStar: "J"}
	for lv, want := range cases {
		if got := lv.String(); got != want {
			t.Errorf("Level(%d).String() = %q, want %q", lv, got, want)
		}
	}
}

func TestNewElidesDefaultEntries(t *testing.T) {
	c := catN(7)
	l := New(L1, P(c, L1))
	if l.NumExplicit() != 0 {
		t.Errorf("entry at default level should be elided, got %d explicit", l.NumExplicit())
	}
	if l.Get(c) != L1 {
		t.Errorf("Get = %v, want L1", l.Get(c))
	}
}

func TestGetDefault(t *testing.T) {
	l := New(L2)
	if got := l.Get(catN(99)); got != L2 {
		t.Errorf("unlisted category level = %v, want default L2", got)
	}
	if l.Default() != L2 {
		t.Errorf("Default() = %v", l.Default())
	}
}

func TestWithWithout(t *testing.T) {
	c := catN(5)
	l := New(L1)
	l2 := l.With(c, L3)
	if l.Get(c) != L1 {
		t.Error("With must not mutate the receiver")
	}
	if l2.Get(c) != L3 {
		t.Errorf("With: got %v", l2.Get(c))
	}
	l3 := l2.Without(c)
	if l3.Get(c) != L1 {
		t.Errorf("Without: got %v", l3.Get(c))
	}
	if !l3.Equal(l) {
		t.Error("Without should restore the original label")
	}
	// Setting to default removes the explicit entry.
	l4 := l2.With(c, L1)
	if l4.NumExplicit() != 0 {
		t.Error("With(default) should elide the entry")
	}
}

func TestEqual(t *testing.T) {
	a, b := catN(1), catN(2)
	l1 := New(L1, P(a, L3), P(b, L0))
	l2 := New(L1, P(b, L0), P(a, L3))
	if !l1.Equal(l2) {
		t.Error("labels with same entries in different order must be equal")
	}
	l3 := New(L1, P(a, L3))
	if l1.Equal(l3) {
		t.Error("different labels must not be equal")
	}
	l4 := New(L2, P(a, L3), P(b, L0))
	if l1.Equal(l4) {
		t.Error("different defaults must not be equal")
	}
}

func TestLeqBasic(t *testing.T) {
	// Paper Section 2: LT = {1}, LO = {c3, 1}: information may not flow from
	// O to T, i.e. NOT (LO ⊑ LT), but LT ⊑ LO.
	c := catN(10)
	lt := New(L1)
	lo := New(L1, P(c, L3))
	if lo.Leq(lt) {
		t.Error("{c3,1} ⊑ {1} should be false")
	}
	if !lt.Leq(lo) {
		t.Error("{1} ⊑ {c3,1} should be true")
	}

	// O' = {c0, 1}: no information can flow from T to O'.
	lo2 := New(L1, P(c, L0))
	if lt.Leq(lo2) {
		t.Error("{1} ⊑ {c0,1} should be false")
	}
	if !lo2.Leq(lt) {
		t.Error("{c0,1} ⊑ {1} should be true")
	}
}

func TestLeqDefaultsOnly(t *testing.T) {
	if !New(L1).Leq(New(L3)) {
		t.Error("{1} ⊑ {3}")
	}
	if New(L3).Leq(New(L1)) {
		t.Error("{3} ⊑ {1} should fail")
	}
	if !New(L2).Leq(New(L2)) {
		t.Error("reflexivity on defaults")
	}
}

func TestLeqExplicitOnlyInRHS(t *testing.T) {
	// l={2}, m={c0, 2}: l(c)=2 > 0=m(c) so l ⊑ m must fail.
	c := catN(4)
	l := New(L2)
	m := New(L2, P(c, L0))
	if l.Leq(m) {
		t.Error("{2} ⊑ {c0,2} should be false")
	}
	if !m.Leq(l) {
		t.Error("{c0,2} ⊑ {2} should be true")
	}
}

func TestJoinMeet(t *testing.T) {
	a, b := catN(1), catN(2)
	l1 := New(L1, P(a, L3))
	l2 := New(L1, P(b, L0))
	j := l1.Join(l2)
	if j.Get(a) != L3 || j.Get(b) != L1 || j.Default() != L1 {
		t.Errorf("join wrong: %v", j)
	}
}

func TestJoinWithDifferentDefaults(t *testing.T) {
	a := catN(1)
	l1 := New(L1, P(a, L0)) // {a0, 1}
	l2 := New(L2)           // {2}
	j := l1.Join(l2)
	if j.Default() != L2 {
		t.Errorf("join default = %v, want 2", j.Default())
	}
	if j.Get(a) != L2 {
		t.Errorf("join(a) = %v, want 2 (max(0, default 2))", j.Get(a))
	}
}

func TestRaiseJLowerStar(t *testing.T) {
	a, b := catN(1), catN(2)
	l := New(L1, P(a, Star), P(b, L3))
	j := l.RaiseJ()
	if j.Get(a) != HiStar || j.Get(b) != L3 {
		t.Errorf("RaiseJ wrong: %v", j)
	}
	back := j.LowerStar()
	if !back.Equal(l) {
		t.Errorf("LowerStar(RaiseJ(l)) != l: %v vs %v", back, l)
	}
}

func TestOwnership(t *testing.T) {
	a, b := catN(1), catN(2)
	l := New(L1, P(a, Star), P(b, L3))
	if !l.Owns(a) || l.Owns(b) {
		t.Error("Owns wrong")
	}
}

// TestPaperClamAVScenario reproduces the ClamAV label topology of Figure 4
// and checks the flows the paper claims are allowed or blocked.
func TestPaperClamAVScenario(t *testing.T) {
	br := catN(101) // Bob's read category
	bw := catN(102) // Bob's write category
	v := catN(103)  // wrap's isolation category

	userData := New(L1, P(bw, L0), P(br, L3)) // {bw0, br3, 1}
	wrap := New(L1, P(br, Star), P(v, Star))  // {br*, v*, 1}
	scanner := New(L1, P(br, L3), P(v, L3))   // {br3, v3, 1}
	helper := scanner
	privateTmp := New(L1, P(br, Star), P(v, L3)) // as in Fig 4: {br*, v3, 1}... containers
	_ = privateTmp
	updateDaemon := New(L1) // {1}
	network := New(L1)      // {1}
	tty := New(L1)

	// wrap can observe user data (owns br).
	if !CanObserve(wrap, userData) {
		t.Error("wrap must be able to observe user data")
	}
	// The scanner, tainted br3 v3, can observe user data.
	if !CanObserve(scanner, userData) {
		t.Error("scanner must be able to read user data once tainted")
	}
	// The scanner cannot modify user data (v taint, bw).
	if CanModify(scanner, userData) {
		t.Error("scanner must not modify user data")
	}
	// The scanner cannot write to the network or update daemon ({1}).
	if CanModify(scanner, network) {
		t.Error("scanner must not write to the network")
	}
	if CanModify(scanner, updateDaemon) {
		t.Error("scanner must not signal the update daemon")
	}
	if CanModify(helper, tty) {
		t.Error("helper must not write the TTY")
	}
	// The update daemon cannot observe user data (no br ownership, br3).
	if CanObserve(updateDaemon, userData) {
		t.Error("update daemon must not read user data")
	}
	// wrap CAN write to the TTY: it owns v and br, and is untainted elsewhere.
	if !CanModify(wrap, tty) {
		t.Error("wrap must be able to write the TTY")
	}
	// The update daemon can write the virus DB {1} and read the network.
	virusDB := New(L1)
	if !CanModify(updateDaemon, virusDB) || !CanObserve(updateDaemon, network) {
		t.Error("update daemon must keep functioning")
	}
}

func TestCanAllocateAndClearance(t *testing.T) {
	c := catN(9)
	lt := New(L1)
	ct := New(L2)
	// Allocation within [LT, CT] is allowed.
	if !CanAllocate(lt, ct, New(L1, P(c, L2))) {
		t.Error("allocation at clearance boundary should work")
	}
	// Above clearance: denied.
	if CanAllocate(lt, ct, New(L1, P(c, L3))) {
		t.Error("allocation above clearance must fail")
	}
	// Below own label: denied (cannot create less-tainted objects).
	if CanAllocate(New(L1, P(c, L2)), New(L2, P(c, L3)), New(L1)) {
		t.Error("allocation below own label must fail")
	}
}

// minObserveLabel is the paper's (curᴶ ⊔ obj)⋆ — the lowest label a thread
// labeled cur must raise itself to before it can observe obj — written out
// from the primitives a library composes it from.
func minObserveLabel(cur, obj Label) Label { return cur.RaiseJ().Join(obj).LowerStar() }

func TestMinObserveLabel(t *testing.T) {
	c := catN(12)
	cur := New(L1)
	obj := New(L1, P(c, L3))
	min := minObserveLabel(cur, obj)
	if !cur.Leq(min) {
		t.Error("LT ⊑ L'T must hold")
	}
	if !CanObserve(min, obj) {
		t.Error("minimum observe label must permit observation")
	}
	// It should be exactly {c3, 1}.
	if !min.Equal(New(L1, P(c, L3))) {
		t.Errorf("minObserveLabel = %v, want {c3,1}", min)
	}
	// An owner's star is preserved (via J and back).
	owner := New(L1, P(c, Star))
	m2 := minObserveLabel(owner, obj)
	if !m2.Owns(c) {
		t.Errorf("owner must keep ownership after minObserveLabel, got %v", m2)
	}
}

func TestValidators(t *testing.T) {
	c := catN(13)
	if !ValidObjectLabel(New(L1, P(c, L3))) {
		t.Error("plain object label should be valid")
	}
	if ValidObjectLabel(New(L1, P(c, Star))) {
		t.Error("object labels may not contain ⋆")
	}
	if !ValidThreadLabel(New(L1, P(c, Star))) {
		t.Error("thread labels may contain ⋆")
	}
	if ValidThreadLabel(New(L1).With(c, HiStar)) {
		t.Error("thread labels may not contain J")
	}
	if !ValidClearance(New(L2, P(c, L3))) {
		t.Error("numeric clearance should be valid")
	}
	if ValidClearance(New(L2, P(c, Star))) {
		t.Error("clearance may not contain ⋆")
	}
}

func TestString(t *testing.T) {
	l := New(L1, P(catN(7), Star), P(catN(42), L3))
	if got, want := l.String(), "{c7*, c423, 1}"; got != want {
		t.Errorf("String = %q, want %q", got, want)
	}
}

func TestOwnedBypassesFlowChecks(t *testing.T) {
	// A thread owning c may both observe objects tainted c3 and modify
	// objects at c0 — ownership ignores the category in both directions.
	c := catN(77)
	owner := New(L1, P(c, Star))
	secret := New(L1, P(c, L3))
	lowIntegrity := New(L1, P(c, L0))
	if !CanObserve(owner, secret) {
		t.Error("owner must observe c3 objects")
	}
	if !CanModify(owner, lowIntegrity) {
		t.Error("owner must modify c0 objects")
	}
	// A non-owner can do neither.
	plain := New(L1)
	if CanObserve(plain, secret) {
		t.Error("non-owner must not observe c3")
	}
	if CanModify(plain, lowIntegrity) {
		t.Error("non-owner must not modify c0")
	}
}

func TestReadWithoutUntaintLevels(t *testing.T) {
	// Level 2 permits reading by default-clearance threads after
	// self-tainting, level 3 does not (clearance {2} blocks it).
	c := catN(88)
	thread := New(L1)
	clearance := New(L2)
	obj2 := New(L1, P(c, L2))
	obj3 := New(L1, P(c, L3))

	need2 := minObserveLabel(thread, obj2)
	if !thread.Leq(need2) || !need2.Leq(clearance) {
		t.Error("thread should be able to taint itself to read a level-2 object")
	}
	need3 := minObserveLabel(thread, obj3)
	if thread.Leq(need3) && need3.Leq(clearance) {
		t.Error("default clearance must block tainting to level 3")
	}
}
