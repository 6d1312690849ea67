// Package lib is the surface gate's fixture: each exported name says in its
// comment whether the gate flags it or counts it as used.
package lib

// Titler is called by Describe: Titler.Title counts.
type Titler interface{ Title(c int) string }

// Describe counts: main calls it.
func Describe(n Titler, c int) string {
	if n == nil {
		return "?"
	}
	return n.Title(c)
}

// Registry has the method Titler names, but no code converts a Registry to
// a Titler: Registry.Title is flagged.  Registry.String counts: main hands a
// Registry to fmt as an any, and fmt calls String.
type Registry struct{}

func (Registry) Title(c int) string { return "r" }

func (Registry) String() string { return "registry" }

// Counters.Live is read and counts; Counters.Dirty is only incremented and
// is flagged.
type Counters struct {
	Dirty int
	Live  int
}

// Count counts: main calls it.
func Count(n int) Counters {
	var c Counters
	for i := 0; i < n; i++ {
		c.Dirty++
	}
	c.Live = n
	return c
}

// Unused is flagged; Used counts.
const (
	Unused = 1
	Used   = 2
)

// Pager is called by Fault: Pager.PageIn counts.
type Pager interface{ PageIn(id int) []byte }

// Fault counts: main calls it.
func Fault(p Pager, id int) []byte { return p.PageIn(id) }

// Store.PageIn counts, promoted through Paged's embedded field into the
// Pager main converts a Paged to; Store.Unreached is flagged.
type Store struct{}

func (*Store) PageIn(id int) []byte { return nil }

func (*Store) Unreached() {}

// Paged.Store is written only as a composite literal key, yet counts: a call
// through Pager reads it to reach the promoted PageIn.
type Paged struct{ *Store }
