package btree

import (
	"math/rand"
	"sort"
	"testing"
	"testing/quick"
)

func TestEmptyTree(t *testing.T) {
	var tr Tree
	if tr.Len() != 0 {
		t.Error("empty tree length")
	}
	if _, ok := tr.Get(K1(1)); ok {
		t.Error("Get on empty tree")
	}
	if tr.Delete(K1(1)) {
		t.Error("Delete on empty tree")
	}
	if _, _, ok := tr.Ceiling(K1(0)); ok {
		t.Error("Ceiling on empty tree")
	}
	if _, _, ok := tr.Floor(K1(10)); ok {
		t.Error("Floor on empty tree")
	}
	tr.Scan(func(Key, uint64) bool { t.Error("scan visited something"); return false })
}

func TestPutGetReplace(t *testing.T) {
	var tr Tree
	tr.Put(K1(5), 50)
	tr.Put(K1(3), 30)
	tr.Put(K1(9), 90)
	if tr.Len() != 3 {
		t.Errorf("Len = %d", tr.Len())
	}
	if v, ok := tr.Get(K1(3)); !ok || v != 30 {
		t.Errorf("Get(3) = %d, %v", v, ok)
	}
	tr.Put(K1(3), 33)
	if tr.Len() != 3 {
		t.Errorf("replace changed length: %d", tr.Len())
	}
	if v, _ := tr.Get(K1(3)); v != 33 {
		t.Errorf("replaced value = %d", v)
	}
}

func TestLargeInsertAndScanOrder(t *testing.T) {
	var tr Tree
	const n = 10000
	perm := rand.New(rand.NewSource(1)).Perm(n)
	for _, i := range perm {
		tr.Put(K1(uint64(i)), uint64(i)*2)
	}
	if tr.Len() != n {
		t.Fatalf("Len = %d", tr.Len())
	}
	var prev Key
	count := 0
	tr.Scan(func(k Key, v uint64) bool {
		if count > 0 && !prev.Less(k) {
			t.Fatalf("scan out of order: %v then %v", prev, k)
		}
		if v != k[0]*2 {
			t.Fatalf("wrong value for %v: %d", k, v)
		}
		prev = k
		count++
		return true
	})
	if count != n {
		t.Errorf("scan visited %d", count)
	}
	// A tree with 10k keys and degree 64 should be shallow (balanced on the
	// insert path).
	d := 1
	for n := tr.root; !n.leaf; n = n.children[0] {
		d++
	}
	if d > 4 {
		t.Errorf("tree depth = %d, expected <= 4", d)
	}
}

func TestDelete(t *testing.T) {
	var tr Tree
	for i := uint64(0); i < 1000; i++ {
		tr.Put(K1(i), i)
	}
	for i := uint64(0); i < 1000; i += 2 {
		if !tr.Delete(K1(i)) {
			t.Fatalf("delete %d failed", i)
		}
	}
	if tr.Len() != 500 {
		t.Errorf("Len after deletes = %d", tr.Len())
	}
	for i := uint64(0); i < 1000; i++ {
		_, ok := tr.Get(K1(i))
		if (i%2 == 0) == ok {
			t.Errorf("key %d present=%v", i, ok)
		}
	}
	if tr.Delete(K1(0)) {
		t.Error("double delete succeeded")
	}
}

func TestCeilingFloor(t *testing.T) {
	var tr Tree
	for _, k := range []uint64{10, 20, 30, 40, 50} {
		tr.Put(K1(k), k)
	}
	cases := []struct {
		q       uint64
		ceil    uint64
		ceilOK  bool
		floor   uint64
		floorOK bool
	}{
		{5, 10, true, 0, false},
		{10, 10, true, 10, true},
		{15, 20, true, 10, true},
		{50, 50, true, 50, true},
		{55, 0, false, 50, true},
	}
	for _, c := range cases {
		k, _, ok := tr.Ceiling(K1(c.q))
		if ok != c.ceilOK || (ok && k[0] != c.ceil) {
			t.Errorf("Ceiling(%d) = %v,%v want %d,%v", c.q, k, ok, c.ceil, c.ceilOK)
		}
		k, _, ok = tr.Floor(K1(c.q))
		if ok != c.floorOK || (ok && k[0] != c.floor) {
			t.Errorf("Floor(%d) = %v,%v want %d,%v", c.q, k, ok, c.floor, c.floorOK)
		}
	}
}

func TestCeilingFloorAcrossLeaves(t *testing.T) {
	var tr Tree
	// Enough keys to force several leaf splits, spaced by 10.
	for i := uint64(0); i < 5000; i++ {
		tr.Put(K1(i*10), i)
	}
	for i := uint64(1); i < 4999; i++ {
		q := i*10 + 5
		ck, _, ok := tr.Ceiling(K1(q))
		if !ok || ck[0] != (i+1)*10 {
			t.Fatalf("Ceiling(%d) = %v, %v", q, ck, ok)
		}
		fk, _, ok := tr.Floor(K1(q))
		if !ok || fk[0] != i*10 {
			t.Fatalf("Floor(%d) = %v, %v", q, fk, ok)
		}
	}
}

func TestCompositeKeys(t *testing.T) {
	var tr Tree
	// Free-by-size tree usage: key = (size, offset).
	tr.Put(K2(4096, 1000), 0)
	tr.Put(K2(4096, 2000), 0)
	tr.Put(K2(8192, 500), 0)
	// Smallest extent of at least 4096 bytes.
	k, _, ok := tr.Ceiling(K2(4096, 0))
	if !ok || k[0] != 4096 || k[1] != 1000 {
		t.Errorf("Ceiling = %v", k)
	}
	// Smallest extent of at least 5000 bytes.
	k, _, ok = tr.Ceiling(K2(5000, 0))
	if !ok || k[0] != 8192 {
		t.Errorf("Ceiling(5000) = %v", k)
	}
}

func TestKeyOrdering(t *testing.T) {
	if !K2(1, 5).Less(K2(2, 0)) {
		t.Error("first component should dominate")
	}
	if !K2(1, 5).Less(K2(1, 6)) {
		t.Error("second component should break ties")
	}
	if K2(1, 5).Less(K2(1, 5)) {
		t.Error("equal keys are not Less")
	}
}

// TestPropMatchesMapModel drives the tree with random operations and checks
// it against a plain map plus sorting.
func TestPropMatchesMapModel(t *testing.T) {
	f := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		var tr Tree
		model := make(map[Key]uint64)
		for op := 0; op < 3000; op++ {
			k := K2(uint64(r.Intn(200)), uint64(r.Intn(5)))
			switch r.Intn(3) {
			case 0:
				v := uint64(r.Intn(1000))
				tr.Put(k, v)
				model[k] = v
			case 1:
				got := tr.Delete(k)
				_, want := model[k]
				if got != want {
					t.Logf("delete mismatch for %v: got %v want %v", k, got, want)
					return false
				}
				delete(model, k)
			case 2:
				gotV, gotOK := tr.Get(k)
				wantV, wantOK := model[k]
				if gotOK != wantOK || (gotOK && gotV != wantV) {
					t.Logf("get mismatch for %v", k)
					return false
				}
			}
		}
		if tr.Len() != len(model) {
			t.Logf("length mismatch: %d vs %d", tr.Len(), len(model))
			return false
		}
		// Full scan matches the sorted model.
		keys := make([]Key, 0, len(model))
		for k := range model {
			keys = append(keys, k)
		}
		sort.Slice(keys, func(i, j int) bool { return keys[i].Less(keys[j]) })
		i := 0
		okScan := true
		tr.Scan(func(k Key, v uint64) bool {
			if i >= len(keys) || keys[i] != k || model[k] != v {
				okScan = false
				return false
			}
			i++
			return true
		})
		if !okScan || i != len(keys) {
			t.Logf("scan mismatch (i=%d of %d)", i, len(keys))
			return false
		}
		// Spot-check Ceiling and Floor against the model.
		for q := 0; q < 50; q++ {
			probe := K2(uint64(r.Intn(220)), uint64(r.Intn(6)))
			var wantCeil *Key
			var wantFloor *Key
			for _, k := range keys {
				k := k
				if !k.Less(probe) && wantCeil == nil {
					wantCeil = &k
				}
				if k.Less(probe) || k == probe {
					wantFloor = &k
				}
			}
			ck, _, cok := tr.Ceiling(probe)
			if (wantCeil != nil) != cok || (cok && ck != *wantCeil) {
				t.Logf("ceiling mismatch at %v: got %v,%v want %v", probe, ck, cok, wantCeil)
				return false
			}
			fk, _, fok := tr.Floor(probe)
			if (wantFloor != nil) != fok || (fok && fk != *wantFloor) {
				t.Logf("floor mismatch at %v: got %v,%v want %v", probe, fk, fok, wantFloor)
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 20}); err != nil {
		t.Error(err)
	}
}
