package unixlib

import (
	"sync"

	"histar/internal/kernel"
)

// A process's name table holds the bindings it found lately, each with the
// even sequence word of its directory's segment that it was read under, which
// a warm lookup checks with one read of the directory's header (dirseg.go,
// lookupEntry).  It is the process's own — no other process reads or fills
// it, and a new process, spawned or forked, starts with it empty — and holds
// only bindings that were found: a lookup that finds nothing drops the slot
// that sent it to look.  A binding has a set of nameWays slots, chosen by a
// hash of its directory and name; a new one goes first in its set and pushes
// the last out.  The slots are allocated at the first binding, so a process
// that resolves nothing pays for none.  The process's own edits keep the
// table current (edited); a slot another process's edit made stale costs its
// next lookup one read of the header, then the lookup runs as without it.
type nameTable struct {
	mu   sync.Mutex
	sets *[nameSets][nameWays]nameSlot // nil until the first put
}

// A process remembers nameSets × nameWays bindings; nameSets is a power of
// two.
const (
	nameSets = 4
	nameWays = 4
)

// nameSlot is one remembered binding: e, in the directory dir whose segment
// is seg, read under the sequence word seq.  A slot whose dir is NilID is
// empty.
type nameSlot struct {
	dir, seg kernel.ID
	seq      uint64
	e        DirEntry
}

// set is the set of slots that may remember the binding of name in dir.
func (t *nameTable) set(dir kernel.ID, name string) *[nameWays]nameSlot {
	return &t.sets[(nameHash(name)^uint64(dir))&(nameSets-1)]
}

// way returns the slot of set that remembers name in dir, or -1; an empty
// slot remembers NilID's "".
func way(set *[nameWays]nameSlot, dir kernel.ID, name string) int {
	for i := range set {
		if set[i].dir == dir && set[i].e.Name == name {
			return i
		}
	}
	return -1
}

// get returns the remembered binding of name in dir, if there is one.  A nil
// table remembers nothing.
func (t *nameTable) get(dir kernel.ID, name string) (nameSlot, bool) {
	if t == nil {
		return nameSlot{}, false
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	if t.sets == nil {
		return nameSlot{}, false
	}
	set := t.set(dir, name)
	if i := way(set, dir, name); i >= 0 {
		return set[i], true
	}
	return nameSlot{}, false
}

// put remembers that e was bound in dir, whose segment is seg, under the
// even sequence word seq: first in its set, in place of its earlier binding,
// an empty slot or the set's last.
func (t *nameTable) put(dir, seg kernel.ID, seq uint64, e DirEntry) {
	if t == nil {
		return
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	if t.sets == nil {
		t.sets = new([nameSets][nameWays]nameSlot)
	}
	set := t.set(dir, e.Name)
	i := way(set, dir, e.Name)
	if i < 0 {
		i = way(set, kernel.NilID, "")
	}
	if i < 0 {
		i = nameWays - 1
	}
	copy(set[1:i+1], set[:i])
	set[0] = nameSlot{dir: dir, seg: seg, seq: seq, e: e}
}

// drop forgets the binding of name in dir.
func (t *nameTable) drop(dir kernel.ID, name string) {
	if t == nil {
		return
	}
	t.mu.Lock()
	t.dropLocked(dir, name)
	t.mu.Unlock()
}

func (t *nameTable) dropLocked(dir kernel.ID, name string) {
	if t.sets == nil {
		return
	}
	set := t.set(dir, name)
	if i := way(set, dir, name); i >= 0 {
		set[i] = nameSlot{}
	}
}

// edited applies the process's own edit of dir, which locked the sequence
// word at seq, changed the bindings of names and nothing else, and released
// the word at seq+2: the slots of those names go, and dir's other slots read
// under seq move to seq+2.
func (t *nameTable) edited(dir kernel.ID, seq uint64, names []string) {
	if t == nil {
		return
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	if t.sets == nil {
		return
	}
	for _, name := range names {
		t.dropLocked(dir, name)
	}
	for i := range t.sets {
		for j := range t.sets[i] {
			if s := &t.sets[i][j]; s.dir == dir && s.seq == seq {
				s.seq = seq + 2
			}
		}
	}
}
