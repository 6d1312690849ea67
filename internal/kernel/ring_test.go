package kernel

import (
	"bytes"
	"encoding/binary"
	"errors"
	"fmt"
	"math/rand"
	"sync"
	"testing"

	"histar/internal/label"
)

// Ring tests: a randomized property test against a sequential reference
// model (including error propagation and label denials), the case where
// running out of submission order would show, stats accounting, and a -race
// stress test of many threads submitting overlapping-object batches.

// opSync stands, in a property-test batch, for an fsync of the entry's
// segment: a SyncSegments call of its own between two ring Waits, since a
// ring carries no sync.
const opSync RingOp = -1

// ringTestEnv is a booted kernel with a few segments to batch against.
type ringTestEnv struct {
	k    *Kernel
	tc   *ThreadCall
	segs []CEnt
}

func newRingEnv(t *testing.T, nSegs, segSize int) *ringTestEnv {
	t.Helper()
	k, tc := boot(t)
	env := &ringTestEnv{k: k, tc: tc}
	for i := 0; i < nSegs; i++ {
		id, err := tc.SegmentCreate(k.RootContainer(), label.New(label.L1), fmt.Sprintf("ring seg %d", i), segSize)
		if err != nil {
			t.Fatalf("SegmentCreate: %v", err)
		}
		env.segs = append(env.segs, CEnt{Container: k.RootContainer(), Object: id})
	}
	return env
}

// modelExec executes a batch sequentially, in submission order, against
// plain byte slices — the reference semantics the ring must match, since a
// batch is its entries made as direct calls one after another.  The segments
// in readOnly may be observed but not modified: a write, resize or sync of
// one is ErrLabel.  An OpObjectStat names a thread in threads, and is ErrLabel
// where the thread maps to false (its label, read raised, is not below the
// caller's).  It returns, for every segment an opSync pushed (whatever the
// commit answered), the bytes it held at its last such sync.
func modelExec(entries []RingEntry, segs map[ID][]byte, quota map[ID]uint64, readOnly, threads map[ID]bool, poison map[uint64]error) ([]RingCompletion, map[ID][]byte, map[ID][]byte) {
	synced := make(map[ID][]byte)
	state := make(map[ID][]byte, len(segs))
	for id, b := range segs {
		state[id] = append([]byte(nil), b...)
	}
	comps := make([]RingCompletion, len(entries))
	for i, e := range entries {
		comps[i].Index = i
		data, ok := state[e.Seg.Object]
		var err error
		switch {
		case e.Op == OpObjectStat:
			if !threads[e.Seg.Object] {
				err = ErrLabel
			}
		case !ok:
			err = ErrNoSuchObject
		case readOnly[e.Seg.Object] && (e.Op == OpSegmentWrite || e.Op == OpSegmentResize || e.Op == opSync):
			err = ErrLabel
		default:
			switch e.Op {
			case OpSegmentRead:
				if e.Off < 0 || e.Len < 0 || e.Off > len(data) {
					err = ErrInvalid
					break
				}
				end := len(data)
				if e.Len < end-e.Off {
					end = e.Off + e.Len
				}
				comps[i].Val = append([]byte(nil), data[e.Off:end]...)
				comps[i].N = len(comps[i].Val)
			case OpSegmentLen:
				comps[i].N = len(data)
			case OpSegmentWrite:
				if e.Off < 0 {
					err = ErrInvalid
					break
				}
				end := e.Off + len(e.Data)
				if uint64(end)+128 > quota[e.Seg.Object] && end > len(data) {
					err = ErrQuota
					break
				}
				if end > len(data) {
					grown := make([]byte, end)
					copy(grown, data)
					data = grown
				}
				copy(data[e.Off:], e.Data)
				state[e.Seg.Object] = data
				comps[i].N = len(e.Data)
			case OpSegmentResize:
				if e.Len < 0 {
					err = ErrInvalid
					break
				}
				if uint64(e.Len)+128 > quota[e.Seg.Object] {
					err = ErrQuota
					break
				}
				if e.Len <= len(data) {
					state[e.Seg.Object] = data[:e.Len]
				} else {
					grown := make([]byte, e.Len)
					copy(grown, data)
					state[e.Seg.Object] = grown
				}
			case opSync:
				synced[e.Seg.Object] = append([]byte(nil), data...)
				err = poison[uint64(e.Seg.Object)]
			}
		}
		comps[i].Err = err
	}
	return comps, state, synced
}

// propEnv is one kernel of the three-path property test: propSegs segments —
// created plain, or copied from golden segments so they start frozen — and
// after them one segment the boot thread may observe but not modify, each
// mapped read-write at mapVA(i) in the boot thread's address space, and all
// marked persistent on the kernel's own fake pager.  Two threads are there to be stat'ed: one labeled like
// the boot thread, and one owning the category the boot thread gave up, whose
// label the boot thread may not read (LT′ᴶ ⊑ LTᴶ fails).
type propEnv struct {
	k      *Kernel
	tc     *ThreadCall
	pager  *fakePager
	as     CEnt
	master ID // the container of golden, or 0: plain segments
	golden []ID
	ro     CEnt
	segs   []CEnt // the writable segments, then ro
	peer   CEnt   // a thread the boot thread may stat
	owner  CEnt   // a thread it may not
}

const propSegs, propSegSize = 4, 256

func mapVA(i int) uint64 { return uint64(i+1) << 24 }

func newPropEnv(t *testing.T, cloned bool) *propEnv {
	t.Helper()
	k, tc := boot(t)
	root := k.RootContainer()
	env := &propEnv{k: k, tc: tc, pager: newFakePager()}
	k.SetPager(env.pager)
	as, err := tc.AddressSpaceCreate(root, label.New(label.L1), "prop as")
	if err != nil {
		t.Fatal(err)
	}
	env.as = CEnt{root, as}
	if err := tc.SelfSetAddressSpace(env.as); err != nil {
		t.Fatal(err)
	}
	// The read-only segment: {w0, 1} is made, filled and marked persistent
	// while the thread owns w, and then the thread gives w up.  Its mapping
	// allows writes, so the memory path's refusal is the label check's.
	w, err := tc.CategoryCreate()
	if err != nil {
		t.Fatal(err)
	}
	ro, err := tc.SegmentCreate(root, label.New(label.L1, label.P(w, label.L0)), "prop read-only", propSegSize)
	if err != nil {
		t.Fatal(err)
	}
	env.ro = CEnt{root, ro}
	if err := tc.SegmentWrite(env.ro, 0, bytes.Repeat([]byte{0x5A}, propSegSize)); err != nil {
		t.Fatal(err)
	}
	for _, th := range []struct {
		ce  *CEnt
		lbl label.Label
	}{{&env.peer, label.New(label.L1)}, {&env.owner, label.New(label.L1, label.P(w, label.Star))}} {
		id, err := tc.ThreadCreate(root, ThreadSpec{Label: th.lbl, Clearance: label.New(label.L2, label.P(w, label.L3)), Descrip: "prop stat target"})
		if err != nil {
			t.Fatal(err)
		}
		*th.ce = CEnt{root, id}
	}
	if err := tc.SegmentPersist(env.ro); err != nil {
		t.Fatal(err)
	}
	if err := tc.SelfSetLabel(label.New(label.L1)); err != nil {
		t.Fatal(err)
	}
	if cloned {
		golden, err := tc.ContainerCreate(root, label.New(label.L1), "prop golden", 0, QuotaInfinite)
		if err != nil {
			t.Fatal(err)
		}
		for i := 0; i < propSegs; i++ {
			id, err := tc.SegmentCreate(golden, label.New(label.L1), "golden seg", propSegSize)
			if err != nil {
				t.Fatal(err)
			}
			if err := tc.SegmentWrite(CEnt{golden, id}, 0, bytes.Repeat([]byte{byte(0xA0 + i)}, propSegSize)); err != nil {
				t.Fatal(err)
			}
			env.golden = append(env.golden, id)
		}
		env.master = golden
	}
	env.fresh(t)
	return env
}

// fresh gives the environment a new set of persistent segments (for a cloned
// one, new copies of the golden segments: frozen, sharing their bytes) and
// maps them.
func (env *propEnv) fresh(t *testing.T) {
	t.Helper()
	root := env.k.RootContainer()
	env.segs = env.segs[:0]
	for i := 0; i < propSegs; i++ {
		var id ID
		var err error
		if env.master == 0 {
			id, err = env.tc.SegmentCreate(root, label.New(label.L1), "prop seg", propSegSize)
		} else {
			id, err = env.tc.SegmentCopy(CEnt{env.master, env.golden[i]}, root, label.New(label.L1), "prop copy")
		}
		if err != nil {
			t.Fatal(err)
		}
		if err := env.tc.SegmentPersist(CEnt{root, id}); err != nil {
			t.Fatal(err)
		}
		env.segs = append(env.segs, CEnt{root, id})
	}
	env.segs = append(env.segs, env.ro)
	maps := make([]Mapping, len(env.segs))
	for i, ce := range env.segs {
		maps[i] = Mapping{VA: mapVA(i), Seg: ce, NPages: 1, Flags: MapRead | MapWrite}
	}
	if err := env.tc.AddressSpaceSet(env.as, maps); err != nil {
		t.Fatal(err)
	}
}

// replay executes entries one at a time in submission order, each through
// exec, and returns their completions.  An opSync has no direct or memory
// form: each goes through sync, a SyncSegments call of that one segment.
func replay(entries []RingEntry, sync func(CEnt) error, exec func(e RingEntry, c *RingCompletion) error) []RingCompletion {
	comps := make([]RingCompletion, len(entries))
	for i, e := range entries {
		comps[i].Index = i
		if e.Op == opSync {
			comps[i].Err = sync(e.Seg)
		} else {
			comps[i].Err = exec(e, &comps[i])
		}
	}
	return comps
}

// ringExec executes entries through r, one Wait for each run of entries
// between two opSyncs and each opSync through sync, and returns their
// completions in submission order.
func ringExec(r *Ring, entries []RingEntry, sync func(CEnt) error) ([]RingCompletion, error) {
	comps := make([]RingCompletion, 0, len(entries))
	for i := 0; i <= len(entries); i++ {
		if i < len(entries) && entries[i].Op != opSync {
			r.Submit(entries[i])
			continue
		}
		done, err := r.Wait(0)
		if err != nil {
			return nil, err
		}
		for _, c := range done {
			c.Index = len(comps)
			comps = append(comps, c)
		}
		if i < len(entries) {
			comps = append(comps, RingCompletion{Index: i, Err: sync(entries[i].Seg)})
		}
	}
	return comps, nil
}

// syncOne is an fsync of one segment.
func (env *propEnv) syncOne(ce CEnt) error { return env.tc.SyncSegments(ce) }

// directExec is one entry as the direct system call of the same name.
func (env *propEnv) directExec(e RingEntry, c *RingCompletion) (err error) {
	switch e.Op {
	case OpSegmentRead:
		c.Val, err = env.tc.SegmentRead(e.Seg, e.Off, e.Len)
		c.N = len(c.Val)
	case OpSegmentLen:
		c.N, err = env.tc.SegmentLen(e.Seg)
	case OpSegmentWrite:
		if err = env.tc.SegmentWrite(e.Seg, e.Off, e.Data); err == nil {
			c.N = len(e.Data)
		}
	case OpSegmentResize:
		err = env.tc.SegmentResize(e.Seg, e.Len)
	case OpObjectStat:
		c.Stat, err = env.tc.ObjectStat(e.Seg)
	}
	return err
}

// memExec is one entry as a load or store through the segment's mapping.
// What an address cannot express — a length query, a resize, an offset below
// the mapping — goes through the direct call, so the state stays in step.
func (env *propEnv) memExec(e RingEntry, c *RingCompletion) (err error) {
	idx := -1
	for i, ce := range env.segs {
		if ce == e.Seg {
			idx = i
		}
	}
	switch {
	case e.Off < 0 || idx < 0:
		return env.directExec(e, c)
	case e.Op == OpSegmentRead:
		c.Val, err = env.tc.MemRead(mapVA(idx)+uint64(e.Off), e.Len)
		c.N = len(c.Val)
	case e.Op == OpSegmentWrite:
		if err = env.tc.MemWrite(mapVA(idx)+uint64(e.Off), e.Data); err == nil {
			c.N = len(e.Data)
		}
	default:
		return env.directExec(e, c)
	}
	return err
}

// TestRingPropertyVsSequential drives the same random batches down three
// paths — a ring batch, direct system calls, and loads/stores through a
// mapping — on three identically built kernels, once over plain segments and
// once over frozen clones of a golden image, and checks every completion,
// every final segment state and the COW counters of all three against the
// sequential reference model: the same allow/deny verdict and the same
// post-state on every path — and, for every segment a sync pushed, the bytes
// it held at its last sync in the pager, from the same number of pushes.
// Syncs fall between the ring's Waits, and some entries aim at a segment the
// thread can observe but not modify, where every write, resize and sync is
// ErrLabel.  Every push on every path must
// also keep its range's promise (fakePager.outside): a byte outside the range
// is the byte the previous push held, whichever mutation came between — a
// direct, ring or mapped write, a resize, a compare-and-swap, a thread-local
// write, a copy-on-write break.
func TestRingPropertyVsSequential(t *testing.T) {
	for _, v := range []struct {
		name   string
		cloned bool
	}{{"plain", false}, {"cloned", true}} {
		t.Run(v.name, func(t *testing.T) { ringPropertyVsSequential(t, v.cloned) })
	}
}

func ringPropertyVsSequential(t *testing.T, cloned bool) {
	const nSegs, segSize = propSegs, propSegSize
	paths := []string{"ring", "direct", "mem"}
	var envs [3]*propEnv
	for i := range envs {
		envs[i] = newPropEnv(t, cloned)
	}
	rng := rand.New(rand.NewSource(42))

	poisonErr := errors.New("poisoned sync")
	ring := envs[0].tc.NewRing()
	readOnly := map[ID]bool{envs[0].ro.Object: true}
	threads := map[ID]bool{envs[0].peer.Object: true, envs[0].owner.Object: false}
	denied := 0

	for round := 0; round < 200; round++ {
		if round%8 == 0 && round > 0 {
			// New segments now and then, so a cloned run keeps meeting frozen
			// arrays rather than only the ones its first writes made private.
			for _, env := range envs {
				env.fresh(t)
			}
		}
		env := envs[0]
		for _, e := range envs {
			e.pager.poison = map[uint64]error{uint64(e.segs[1].Object): poisonErr}
		}
		quota := make(map[ID]uint64)
		// Current kernel state becomes the model's initial state.
		segs := make(map[ID][]byte, len(env.segs))
		for _, ce := range env.segs {
			quota[ce.Object] = uint64(segSize) + segmentSlack
			buf, err := env.tc.SegmentRead(ce, 0, 1<<20)
			if err != nil {
				t.Fatalf("round %d: snapshot read: %v", round, err)
			}
			segs[ce.Object] = buf
		}

		n := 1 + rng.Intn(12)
		entries := make([]RingEntry, n)
		for i := range entries {
			e := RingEntry{Seg: env.segs[rng.Intn(len(env.segs))]}
			switch rng.Intn(7) {
			case 0:
				e.Op = OpSegmentRead
				e.Off, e.Len = rng.Intn(segSize), rng.Intn(2*segSize)
			case 1:
				e.Op = OpSegmentLen
			case 2:
				e.Op = OpSegmentWrite
				e.Off = rng.Intn(segSize)
				e.Data = bytes.Repeat([]byte{byte(round), byte(i)}, 1+rng.Intn(16))
			case 3:
				e.Op = OpSegmentResize
				e.Len = rng.Intn(2 * segSize)
			case 4:
				e.Op = opSync
			case 5:
				// Error injector: an invalid offset fails the entry.
				e.Op = OpSegmentRead
				e.Off = -1
			case 6:
				e.Op, e.Seg = OpObjectStat, env.peer
				if rng.Intn(2) == 0 {
					e.Seg = env.owner
				}
			}
			entries[i] = e
		}

		wantComps, wantState, synced := modelExec(entries, segs, quota, readOnly, threads, env.pager.poison)
		for _, c := range wantComps {
			if errors.Is(c.Err, ErrLabel) {
				denied++
			}
		}
		var got [3][]RingCompletion
		var err error
		if got[0], err = ringExec(ring, entries, env.syncOne); err != nil {
			t.Fatalf("round %d: Wait: %v", round, err)
		}
		for p := 1; p < 3; p++ {
			// The same entries aimed at this kernel's own segments.
			mine := append([]RingEntry(nil), entries...)
			for i := range mine {
				for s, ce := range env.segs {
					if ce == entries[i].Seg {
						mine[i].Seg = envs[p].segs[s]
					}
				}
				switch entries[i].Seg {
				case env.peer:
					mine[i].Seg = envs[p].peer
				case env.owner:
					mine[i].Seg = envs[p].owner
				}
			}
			exec := envs[p].directExec
			if paths[p] == "mem" {
				exec = envs[p].memExec
			}
			got[p] = replay(mine, envs[p].syncOne, exec)
		}
		for p, gotComps := range got {
			if len(gotComps) != len(wantComps) {
				t.Fatalf("round %d %s: %d completions, want %d", round, paths[p], len(gotComps), len(wantComps))
			}
			for i := range gotComps {
				got, want := gotComps[i], wantComps[i]
				if got.Index != i {
					t.Fatalf("round %d %s entry %d: completion index %d", round, paths[p], i, got.Index)
				}
				if !errors.Is(got.Err, want.Err) {
					t.Fatalf("round %d %s entry %d (%v): err=%v, model err=%v", round, paths[p], i, entries[i].Op, got.Err, want.Err)
				}
				if want.Err == nil && got.Err == nil {
					if entries[i].Op == OpObjectStat && (got.Stat.Type != ObjThread || !got.Stat.Label.Equal(label.New(label.L1))) {
						t.Fatalf("round %d %s entry %d: stat of the peer thread = %+v", round, paths[p], i, got.Stat)
					}
					if !bytes.Equal(got.Val, want.Val) || got.N != want.N {
						t.Fatalf("round %d %s entry %d (%v): result N=%d Val=%q, model N=%d Val=%q",
							round, paths[p], i, entries[i].Op, got.N, got.Val, want.N, want.Val)
					}
				}
			}
			for s, ce := range envs[p].segs {
				buf, err := envs[p].tc.SegmentRead(ce, 0, 1<<20)
				if err != nil {
					t.Fatalf("round %d %s: final read: %v", round, paths[p], err)
				}
				if !bytes.Equal(buf, wantState[env.segs[s].Object]) {
					t.Fatalf("round %d %s: segment %d state diverged from model", round, paths[p], s)
				}
			}
			if a, b := envs[0].k.SnapshotStats(), envs[p].k.SnapshotStats(); a != b {
				t.Fatalf("round %d: COW counters diverged: ring %+v, %s %+v", round, a, paths[p], b)
			}
			for s, ce := range envs[p].segs {
				if want, ok := synced[env.segs[s].Object]; ok && !bytes.Equal(envs[p].pager.data[uint64(ce.Object)], want) {
					t.Fatalf("round %d %s: segment %d was synced, but the pager does not hold its bytes at that sync", round, paths[p], s)
				}
			}
			if a, b := envs[0].pager.puts, envs[p].pager.puts; a != b {
				t.Fatalf("round %d: the ring has pushed %d times, %s %d", round, a, paths[p], b)
			}
		}
		// What a batch cannot carry, the same on every path's kernel: a
		// compare-and-swap, a write to the thread-local segment (never pushed,
		// but through the same gate), then an fsync of the swapped segment.
		s, off := rng.Intn(nSegs), 8*rng.Intn(segSize/8)
		for p, e := range envs {
			ce := e.segs[s]
			if cur, err := e.tc.SegmentRead(ce, off, 8); err == nil && len(cur) == 8 {
				old := binary.LittleEndian.Uint64(cur)
				if ok, err := e.tc.SegmentCompareSwap(ce, uint64(off), old, ^old); err != nil || !ok {
					t.Fatalf("round %d %s: compare-and-swap: %v, %v", round, paths[p], ok, err)
				}
			}
			if err := e.tc.LocalSegmentWrite(0, []byte{byte(round)}); err != nil {
				t.Fatal(err)
			}
			if err := e.syncOne(ce); err != nil && !errors.Is(err, poisonErr) {
				t.Fatalf("round %d %s: sync: %v", round, paths[p], err)
			}
			if len(e.pager.outside) > 0 {
				t.Fatalf("round %d %s: a push broke its range's promise: %s", round, paths[p], e.pager.outside[0])
			}
		}
	}
	if st := envs[0].k.SnapshotStats(); cloned && st.CowBreaks == 0 {
		t.Error("the cloned run broke no COW: it never wrote a frozen segment")
	}
	if envs[0].pager.puts == 0 {
		t.Error("no sync ever pushed a segment")
	}
	if denied == 0 {
		t.Error("no entry was ever refused by the labels")
	}
}

// TestRingRunsInSubmissionOrder pins that a ring entry is its direct call,
// made where it stands among the thread's other calls: a read or a sync is
// checked against the label the thread holds when it is made, not one a later
// gate entry grants (whichever of the two objects has the lower id); a sync
// covers exactly the writes made before it; and in a batch each read sees
// exactly the writes and resizes submitted before it.
func TestRingRunsInSubmissionOrder(t *testing.T) {
	k, tc := boot(t)
	root := k.RootContainer()
	fp := newFakePager()
	k.SetPager(fp)
	u, err := tc.CategoryCreate()
	if err != nil {
		t.Fatal(err)
	}
	uStar := label.New(label.L1, label.P(u, label.Star))
	gateID, err := tc.GateCreate(root, GateSpec{
		Label: uStar, Clearance: label.New(label.L2), Descrip: "grants u",
		Entry: func(*GateCallCtx) []byte { return nil },
	})
	if err != nil {
		t.Fatal(err)
	}
	enter := func(client *ThreadCall) {
		t.Helper()
		if _, err := client.GateEnter(CEnt{root, gateID}, GateRequest{
			Label: uStar, Clearance: label.New(label.L2), Verify: label.New(label.L1),
		}); err != nil {
			t.Fatal(err)
		}
	}

	t.Run("sync before the gate entry", func(t *testing.T) {
		s, err := tc.SegmentCreate(root, label.New(label.L1, label.P(u, label.L0)), "modifiable under u", 16)
		if err != nil {
			t.Fatal(err)
		}
		ce := CEnt{root, s}
		if err := tc.SegmentPersist(ce); err != nil {
			t.Fatal(err)
		}
		client := spawnWorker(t, k, tc, "client")
		if err := client.SyncSegments(ce); !errors.Is(err, ErrLabel) {
			t.Errorf("sync before the gate entry = %v, want ErrLabel", err)
		}
		if fp.puts != 0 || len(fp.groups) != 0 {
			t.Errorf("the pager saw %d pushes and groups %v, want none", fp.puts, fp.groups)
		}
		enter(client)
		if err := client.SyncSegments(ce); err != nil || fp.puts != 1 {
			t.Errorf("sync after the gate entry = %v with %d pushes, want nil and 1", err, fp.puts)
		}
	})

	t.Run("read before the gate entry", func(t *testing.T) {
		// Reply segments until one has an id below the gate's and one above.
		var below, above ID
		for i := 0; i < 64 && (below == NilID || above == NilID); i++ {
			id, err := tc.SegmentCreate(root, label.New(label.L1, label.P(u, label.L3)), "observable under u", 16)
			if err != nil {
				t.Fatal(err)
			}
			if id < gateID {
				below = id
			} else {
				above = id
			}
		}
		if below == NilID || above == NilID {
			t.Fatal("no reply segment on one side of the gate's id")
		}
		for _, reply := range []ID{below, above} {
			client := spawnWorker(t, k, tc, "client")
			r := client.NewRing()
			read := RingEntry{Op: OpSegmentRead, Seg: CEnt{root, reply}, Len: 16}
			r.Submit(read)
			comps, err := r.Wait(1)
			if err != nil || !errors.Is(comps[0].Err, ErrLabel) {
				t.Errorf("reply id %v, gate id %v: read before the gate entry = %v, %v; want ErrLabel", reply, gateID, err, comps[0].Err)
			}
			enter(client)
			r.Submit(read)
			if comps, err = r.Wait(1); err != nil || comps[0].Err != nil {
				t.Errorf("reply id %v, gate id %v: read after the gate entry = %v, %v", reply, gateID, err, comps[0].Err)
			}
		}
	})

	t.Run("sync before a write", func(t *testing.T) {
		x, err := tc.SegmentCreate(root, label.New(label.L1), "x", 0)
		if err != nil {
			t.Fatal(err)
		}
		ce := CEnt{root, x}
		if err := tc.SegmentPersist(ce); err != nil {
			t.Fatal(err)
		}
		if err := tc.SegmentWrite(ce, 0, []byte("before")); err != nil {
			t.Fatal(err)
		}
		if err := tc.SyncSegments(ce); err != nil {
			t.Fatal(err)
		}
		r := tc.NewRing()
		r.Submit(RingEntry{Op: OpSegmentWrite, Seg: ce, Data: []byte("after!")})
		if comps, err := r.Wait(1); err != nil || comps[0].Err != nil {
			t.Fatalf("write after the sync: %v, %v", err, comps)
		}
		if got := fp.data[uint64(x)]; string(got) != "before" {
			t.Errorf("the pager holds %q, want the bytes from before the write", got)
		}
		if got, err := tc.SegmentRead(ce, 0, 6); err != nil || string(got) != "after!" {
			t.Errorf("segment = %q, %v; want the write", got, err)
		}
	})

	t.Run("reads after writes in one batch", func(t *testing.T) {
		var segs [2]CEnt
		for i := range segs {
			id, err := tc.SegmentCreate(root, label.New(label.L1), "batch target", 0)
			if err != nil {
				t.Fatal(err)
			}
			segs[i] = CEnt{root, id}
		}
		a, b := segs[1], segs[0]
		r := tc.NewRing()
		r.Submit(
			RingEntry{Op: OpSegmentRead, Seg: a, Len: 8},
			RingEntry{Op: OpSegmentWrite, Seg: a, Data: []byte("first")},
			RingEntry{Op: OpSegmentRead, Seg: b, Len: 8},
			RingEntry{Op: OpSegmentWrite, Seg: b, Data: []byte("second")},
			RingEntry{Op: OpSegmentRead, Seg: a, Len: 8},
			RingEntry{Op: OpSegmentResize, Seg: a, Len: 2},
			RingEntry{Op: OpSegmentLen, Seg: a},
			RingEntry{Op: OpSegmentRead, Seg: b, Len: 8},
		)
		comps, err := r.Wait(8)
		if err != nil {
			t.Fatal(err)
		}
		for i, want := range []struct {
			val string
			n   int
		}{{"", 0}, {"", 5}, {"", 0}, {"", 6}, {"first", 5}, {"", 0}, {"", 2}, {"second", 6}} {
			if c := comps[i]; c.Err != nil || string(c.Val) != want.val || c.N != want.n {
				t.Errorf("entry %d = (%q, %d, %v), want (%q, %d, nil)", i, c.Val, c.N, c.Err, want.val, want.n)
			}
		}
	})
}

// TestRingCountsAndCoalescing checks the accounting: a Wait of four entries
// is four direct calls, each in its own per-syscall counter and no other,
// and no shared open — a same-target run shares none, so Runs and Coalesced
// stay 0.
func TestRingCountsAndCoalescing(t *testing.T) {
	env := newRingEnv(t, 2, 64)
	env.k.ResetSyscallCounts()
	before := env.k.RingStats()
	ring := env.tc.NewRing()
	ring.Submit(
		RingEntry{Op: OpSegmentRead, Seg: env.segs[0], Off: 0, Len: 8},
		RingEntry{Op: OpSegmentLen, Seg: env.segs[0]},
		RingEntry{Op: OpSegmentWrite, Seg: env.segs[0], Off: 0, Data: []byte("x")},
		RingEntry{Op: OpSegmentRead, Seg: env.segs[1], Off: 0, Len: 8},
	)
	comps, err := ring.Wait(4)
	if err != nil {
		t.Fatal(err)
	}
	for i := range comps {
		if comps[i].Err != nil {
			t.Fatalf("entry %d: %v", i, comps[i].Err)
		}
	}
	counts := env.k.SyscallCounts()
	if counts["segment_read"] != 2 || counts["segment_len"] != 1 || counts["segment_write"] != 1 || env.k.SyscallTotal() != 4 {
		t.Errorf("per-entry counts = %v, want the four entries' calls and nothing else", counts)
	}
	st := env.k.RingStats()
	if waits, entries := st.Waits-before.Waits, st.Entries-before.Entries; waits != 1 || entries != 4 {
		t.Errorf("RingStats waits/entries = %d/%d, want 1/4", waits, entries)
	}
	// Every entry opens on its own, three on one target or not: no run is
	// shared, and the run counters stay 0.
	if st.Runs != 0 || st.Coalesced != 0 || st.GateCalls != 0 {
		t.Errorf("RingStats runs/coalesced/gate calls = %d/%d/%d, want 0/0/0", st.Runs, st.Coalesced, st.GateCalls)
	}
}

// TestRingConcurrentOverlap is the -race stress: many threads submit
// batches over overlapping objects, mixing writes, reads, lengths and stats,
// and sync a segment through the kernel's pager after each batch.
func TestRingConcurrentOverlap(t *testing.T) {
	const nWorkers, nBatches = 8, 60
	env := newRingEnv(t, 4, 256)
	env.k.SetPager(newFakePager())
	for _, ce := range env.segs {
		if err := env.tc.SegmentPersist(ce); err != nil {
			t.Fatal(err)
		}
	}
	var wg sync.WaitGroup
	errCh := make(chan error, nWorkers)
	for w := 0; w < nWorkers; w++ {
		tc := spawnWorker(t, env.k, env.tc, fmt.Sprintf("ring worker %d", w))
		wg.Add(1)
		go func(w int, tc *ThreadCall) {
			defer wg.Done()
			rng := rand.New(rand.NewSource(int64(w)))
			ring := tc.NewRing()
			fail := func(err error) {
				select {
				case errCh <- fmt.Errorf("worker %d: %w", w, err):
				default:
				}
			}
			for b := 0; b < nBatches; b++ {
				n := 1 + rng.Intn(8)
				for i := 0; i < n; i++ {
					e := RingEntry{Seg: env.segs[rng.Intn(len(env.segs))]}
					switch rng.Intn(4) {
					case 0:
						e.Op = OpSegmentRead
						e.Off, e.Len = rng.Intn(64), 64
					case 1:
						e.Op = OpSegmentWrite
						e.Off = rng.Intn(64)
						e.Data = []byte{byte(w), byte(b)}
					case 2:
						e.Op = OpSegmentLen
					case 3:
						e.Op = OpObjectStat
					}
					ring.Submit(e)
				}
				comps, err := ring.Wait(n)
				if err != nil {
					fail(err)
					return
				}
				for i := range comps {
					if comps[i].Err != nil {
						fail(comps[i].Err)
						return
					}
				}
				if err := tc.SyncSegments(env.segs[rng.Intn(len(env.segs))]); err != nil {
					fail(err)
					return
				}
			}
		}(w, tc)
	}
	wg.Wait()
	select {
	case err := <-errCh:
		t.Fatal(err)
	default:
	}
	st := env.k.RingStats()
	if st.Waits == 0 || st.Entries == 0 {
		t.Errorf("no ring activity recorded: %+v", st)
	}
}
