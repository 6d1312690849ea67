package label

import (
	"fmt"
	"strconv"
	"strings"
	"testing"
)

// The parser below is test code: nothing that runs reads a label from text.
// It stays as the inverse of Label.String — the round-trip properties in
// property_test.go use it to check that a rendered label denotes the label
// it was rendered from — and the cases in this file test that oracle.

// Parse parses a label written in the paper's notation, for example
//
//	{c17 3, c42 *, 1}
//	{c17:3, c42:*, 1}
//	{1}
//
// Categories are written cN (N the numeric identifier) and may be separated
// from their level by whitespace or a colon.  The final element is the
// default level.  Symbolic category names are resolved through the optional
// resolver; pass nil to accept only numeric cN categories.
func Parse(s string, resolver func(name string) (Category, bool)) (Label, error) {
	t := strings.TrimSpace(s)
	if len(t) < 2 || t[0] != '{' || t[len(t)-1] != '}' {
		return Label{}, fmt.Errorf("label: %q is not wrapped in braces", s)
	}
	inner := strings.TrimSpace(t[1 : len(t)-1])
	if inner == "" {
		return Label{}, fmt.Errorf("label: %q has no default level", s)
	}
	parts := strings.Split(inner, ",")
	defStr := strings.TrimSpace(parts[len(parts)-1])
	def, err := parseLevel(defStr)
	if err != nil {
		return Label{}, fmt.Errorf("label: bad default level %q: %w", defStr, err)
	}
	if def == Star || def == HiStar {
		return Label{}, fmt.Errorf("label: default level must be numeric, got %q", defStr)
	}
	var pairs []Pair
	for _, part := range parts[:len(parts)-1] {
		part = strings.TrimSpace(part)
		if part == "" {
			return Label{}, fmt.Errorf("label: empty entry in %q", s)
		}
		cat, lvl, err := parseEntry(part, resolver)
		if err != nil {
			return Label{}, err
		}
		pairs = append(pairs, P(cat, lvl))
	}
	return New(def, pairs...), nil
}

// MustParse is Parse but panics on error.
func MustParse(s string, resolver func(name string) (Category, bool)) Label {
	l, err := Parse(s, resolver)
	if err != nil {
		panic(err)
	}
	return l
}

func parseEntry(s string, resolver func(string) (Category, bool)) (Category, Level, error) {
	// Accept "name level", "name:level", or "nameLEVEL" where LEVEL is the
	// final rune and is one of *, J, 0..3 (matches how the paper typesets
	// entries like "br3" or "v⋆").
	var namePart, levelPart string
	if i := strings.IndexAny(s, ": \t"); i >= 0 {
		namePart = strings.TrimSpace(s[:i])
		levelPart = strings.TrimSpace(s[i+1:])
	} else {
		namePart = strings.TrimSpace(s[:len(s)-1])
		levelPart = s[len(s)-1:]
	}
	if namePart == "" || levelPart == "" {
		return 0, 0, fmt.Errorf("label: cannot parse entry %q", s)
	}
	lvl, err := parseLevel(levelPart)
	if err != nil {
		return 0, 0, fmt.Errorf("label: bad level in entry %q: %w", s, err)
	}
	cat, err := parseCategory(namePart, resolver)
	if err != nil {
		return 0, 0, err
	}
	return cat, lvl, nil
}

func parseCategory(name string, resolver func(string) (Category, bool)) (Category, error) {
	if resolver != nil {
		if c, ok := resolver(name); ok {
			return c, nil
		}
	}
	if strings.HasPrefix(name, "c") {
		if n, err := strconv.ParseUint(name[1:], 10, 64); err == nil {
			c := Category(n)
			if !c.Valid() {
				return 0, fmt.Errorf("label: category %q exceeds 61 bits", name)
			}
			return c, nil
		}
	}
	return 0, fmt.Errorf("label: unknown category %q", name)
}

func parseLevel(s string) (Level, error) {
	switch strings.TrimSpace(s) {
	case "*", "⋆", "star", "Star":
		return Star, nil
	case "J", "j", "histar", "HiStar":
		return HiStar, nil
	case "0":
		return L0, nil
	case "1":
		return L1, nil
	case "2":
		return L2, nil
	case "3":
		return L3, nil
	}
	return 0, fmt.Errorf("unrecognized level %q", s)
}

func TestParseBasic(t *testing.T) {
	l, err := Parse("{c5 3, c9 0, 1}", nil)
	if err != nil {
		t.Fatal(err)
	}
	want := New(L1, P(Category(5), L3), P(Category(9), L0))
	if !l.Equal(want) {
		t.Errorf("got %v, want %v", l, want)
	}
}

func TestParseColonSeparator(t *testing.T) {
	l, err := Parse("{c5:3, 2}", nil)
	if err != nil {
		t.Fatal(err)
	}
	if l.Get(Category(5)) != L3 || l.Default() != L2 {
		t.Errorf("got %v", l)
	}
}

func TestParseCompactPaperStyle(t *testing.T) {
	// "br3" style with a resolver for symbolic names.
	alloc := NewAllocator(1)
	br := alloc.Alloc()
	resolver := func(name string) (Category, bool) {
		if name == "br" {
			return br, true
		}
		return 0, false
	}
	l, err := Parse("{br3, 1}", resolver)
	if err != nil {
		t.Fatal(err)
	}
	if l.Get(br) != L3 {
		t.Errorf("br level = %v", l.Get(br))
	}
}

func TestParseStar(t *testing.T) {
	l, err := Parse("{c7 *, 1}", nil)
	if err != nil {
		t.Fatal(err)
	}
	if !l.Owns(Category(7)) {
		t.Error("expected ownership of c7")
	}
}

func TestParseDefaultOnly(t *testing.T) {
	for _, s := range []string{"{1}", "{0}", "{2}", "{3}"} {
		l, err := Parse(s, nil)
		if err != nil {
			t.Fatalf("%s: %v", s, err)
		}
		if l.NumExplicit() != 0 {
			t.Errorf("%s should have no explicit entries", s)
		}
	}
}

func TestParseErrors(t *testing.T) {
	bad := []string{
		"",           // empty
		"{",          // unterminated
		"{}",         // no default
		"{*}",        // star default
		"{J}",        // J default
		"{c1 5, 1}",  // bad level
		"{foo 3, 1}", // unknown symbolic name, no resolver
		"c1 3, 1",    // missing braces
		"{c1 3,, 1}", // empty entry
		"{cX 3, 1}",  // non-numeric category
	}
	for _, s := range bad {
		if _, err := Parse(s, nil); err == nil {
			t.Errorf("Parse(%q) should fail", s)
		}
	}
}

func TestMustParsePanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("MustParse should panic on invalid input")
		}
	}()
	MustParse("{not a label", nil)
}
