// Package btree implements the fixed-size-key B+-trees the HiStar
// single-level store uses (Section 4): one mapping object IDs to their
// location on disk, and two maintaining the free-extent list (indexed by
// extent size and by extent location).  Keys are 128-bit pairs compared
// lexicographically, values are 64-bit — "fixed-size keys and values, which
// significantly simplifies their implementation", as the paper notes.
package btree

import "fmt"

// Key is a fixed-size 128-bit key compared lexicographically.
type Key [2]uint64

// K1 builds a key from a single component.
func K1(a uint64) Key { return Key{a, 0} }

// K2 builds a key from two components (e.g. extent size and offset).
func K2(a, b uint64) Key { return Key{a, b} }

// Less reports whether k sorts before other.
func (k Key) Less(other Key) bool {
	if k[0] != other[0] {
		return k[0] < other[0]
	}
	return k[1] < other[1]
}

// String implements fmt.Stringer.
func (k Key) String() string { return fmt.Sprintf("(%d,%d)", k[0], k[1]) }

// degree is the maximum number of keys per node; nodes split when they
// exceed it.
const degree = 64

// Tree is an in-memory B+-tree from Key to uint64.  The zero value is an
// empty tree ready to use.  A Tree is not safe for concurrent use; callers
// (the store) serialize access.
type Tree struct {
	root *node
	size int
}

type node struct {
	leaf     bool
	keys     []Key
	vals     []uint64 // leaf only, parallel to keys
	children []*node  // internal only, len(children) == len(keys)+1
	next     *node    // leaf chain for range scans
}

// Len returns the number of key/value pairs stored.
func (t *Tree) Len() int { return t.size }

// Get returns the value stored under k.
func (t *Tree) Get(k Key) (uint64, bool) {
	if t.root == nil {
		return 0, false
	}
	n := t.root
	for !n.leaf {
		n = n.children[childIndex(n.keys, k)]
	}
	i, found := leafIndex(n.keys, k)
	if !found {
		return 0, false
	}
	return n.vals[i], true
}

// childIndex returns the child slot to descend into for key k: the first
// child whose separating key is greater than k.
func childIndex(keys []Key, k Key) int {
	lo, hi := 0, len(keys)
	for lo < hi {
		mid := (lo + hi) / 2
		if keys[mid].Less(k) || keys[mid] == k {
			lo = mid + 1
		} else {
			hi = mid
		}
	}
	return lo
}

// leafIndex returns the position of k within a leaf's keys, or the insertion
// point and false.
func leafIndex(keys []Key, k Key) (int, bool) {
	lo, hi := 0, len(keys)
	for lo < hi {
		mid := (lo + hi) / 2
		if keys[mid].Less(k) {
			lo = mid + 1
		} else {
			hi = mid
		}
	}
	return lo, lo < len(keys) && keys[lo] == k
}

// Put inserts or replaces the value under k.
func (t *Tree) Put(k Key, v uint64) {
	if t.root == nil {
		t.root = &node{leaf: true}
	}
	newChild, sepKey, grew := t.insert(t.root, k, v)
	if newChild != nil {
		t.root = &node{
			keys:     []Key{sepKey},
			children: []*node{t.root, newChild},
		}
	}
	if grew {
		t.size++
	}
}

// insert adds k/v below n.  If n splits, it returns the new right sibling
// and the separator key to install in the parent.
func (t *Tree) insert(n *node, k Key, v uint64) (*node, Key, bool) {
	if n.leaf {
		i, found := leafIndex(n.keys, k)
		if found {
			n.vals[i] = v
			return nil, Key{}, false
		}
		n.keys = append(n.keys, Key{})
		n.vals = append(n.vals, 0)
		copy(n.keys[i+1:], n.keys[i:])
		copy(n.vals[i+1:], n.vals[i:])
		n.keys[i] = k
		n.vals[i] = v
		if len(n.keys) > degree {
			right := t.splitLeaf(n)
			return right, right.keys[0], true
		}
		return nil, Key{}, true
	}
	ci := childIndex(n.keys, k)
	newChild, sepKey, grew := t.insert(n.children[ci], k, v)
	if newChild != nil {
		n.keys = append(n.keys, Key{})
		copy(n.keys[ci+1:], n.keys[ci:])
		n.keys[ci] = sepKey
		n.children = append(n.children, nil)
		copy(n.children[ci+2:], n.children[ci+1:])
		n.children[ci+1] = newChild
		if len(n.keys) > degree {
			right, sep := t.splitInternal(n)
			return right, sep, grew
		}
	}
	return nil, Key{}, grew
}

func (t *Tree) splitLeaf(n *node) *node {
	mid := len(n.keys) / 2
	right := &node{
		leaf: true,
		keys: append([]Key(nil), n.keys[mid:]...),
		vals: append([]uint64(nil), n.vals[mid:]...),
		next: n.next,
	}
	n.keys = n.keys[:mid:mid]
	n.vals = n.vals[:mid:mid]
	n.next = right
	return right
}

func (t *Tree) splitInternal(n *node) (*node, Key) {
	mid := len(n.keys) / 2
	sep := n.keys[mid]
	right := &node{
		keys:     append([]Key(nil), n.keys[mid+1:]...),
		children: append([]*node(nil), n.children[mid+1:]...),
	}
	n.keys = n.keys[:mid:mid]
	n.children = n.children[: mid+1 : mid+1]
	return right, sep
}

// Delete removes k from the tree, reporting whether it was present.
// Deletion does not rebalance (leaves may become sparse); empty leaves are
// unlinked lazily during scans.  The store's workloads delete keys they will
// shortly reuse, so this keeps the structure simple without unbounded decay.
func (t *Tree) Delete(k Key) bool {
	if t.root == nil {
		return false
	}
	n := t.root
	for !n.leaf {
		n = n.children[childIndex(n.keys, k)]
	}
	i, found := leafIndex(n.keys, k)
	if !found {
		return false
	}
	n.keys = append(n.keys[:i], n.keys[i+1:]...)
	n.vals = append(n.vals[:i], n.vals[i+1:]...)
	t.size--
	return true
}

// Ceiling returns the smallest key ≥ k and its value.  The free-by-size tree
// uses it to find an appropriately sized extent.
func (t *Tree) Ceiling(k Key) (Key, uint64, bool) {
	if t.root == nil {
		return Key{}, 0, false
	}
	n := t.root
	for !n.leaf {
		n = n.children[childIndex(n.keys, k)]
	}
	i, _ := leafIndex(n.keys, k)
	for n != nil {
		if i < len(n.keys) {
			return n.keys[i], n.vals[i], true
		}
		n = n.next
		i = 0
	}
	return Key{}, 0, false
}

// Floor returns the largest key ≤ k and its value.  The free-by-offset tree
// uses it to find the extent immediately preceding an offset for coalescing.
func (t *Tree) Floor(k Key) (Key, uint64, bool) {
	if t.root == nil {
		return Key{}, 0, false
	}
	// Descend to the leaf that would contain k, remembering the deepest
	// branch point with a left sibling in case the leaf holds nothing ≤ k.
	n := t.root
	var fallback *node
	for !n.leaf {
		ci := childIndex(n.keys, k)
		if ci > 0 {
			fallback = n.children[ci-1]
		}
		n = n.children[ci]
	}
	i, found := leafIndex(n.keys, k)
	if found {
		return n.keys[i], n.vals[i], true
	}
	if i > 0 {
		return n.keys[i-1], n.vals[i-1], true
	}
	if fallback == nil {
		return Key{}, 0, false
	}
	// Rightmost entry of the left sibling subtree.
	n = fallback
	for !n.leaf {
		n = n.children[len(n.children)-1]
	}
	if len(n.keys) > 0 {
		return n.keys[len(n.keys)-1], n.vals[len(n.keys)-1], true
	}
	// The rightmost leaf was emptied by lazy deletion; fall back to a scan.
	var (
		best    Key
		bestVal uint64
		ok      bool
	)
	t.Scan(func(key Key, val uint64) bool {
		if key.Less(k) || key == k {
			best, bestVal, ok = key, val, true
			return true
		}
		return false
	})
	return best, bestVal, ok
}

// Scan visits every key/value pair in ascending order until fn returns
// false.
func (t *Tree) Scan(fn func(Key, uint64) bool) {
	if t.root == nil {
		return
	}
	n := t.root
	for !n.leaf {
		n = n.children[0]
	}
	for n != nil {
		for i := range n.keys {
			if !fn(n.keys[i], n.vals[i]) {
				return
			}
		}
		n = n.next
	}
}
