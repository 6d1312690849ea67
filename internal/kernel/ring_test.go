package kernel

import (
	"bytes"
	"errors"
	"fmt"
	"math/rand"
	"sync"
	"testing"

	"histar/internal/label"
)

// Ring tests: a randomized property test against a sequential reference
// model (including chain-flag skip semantics and error propagation), a
// deterministic chain-semantics test, sync-group dispatch through a fake
// pager (pager_test.go), stats accounting, and a -race stress test of many threads
// submitting overlapping-object batches.

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
// plain byte slices — the reference semantics the ring must match.  Because
// each entry touches only its own target and the ring preserves per-object
// and intra-chain submission order, reordering across objects is
// unobservable and sequential execution is the specification.
func modelExec(entries []RingEntry, segs map[ID][]byte, quota map[ID]uint64, poison map[uint64]error) ([]RingCompletion, map[ID][]byte, map[ID]bool) {
	synced := make(map[ID]bool) // targets of an OpSync that ran: pushed, whatever the commit answered
	state := make(map[ID][]byte, len(segs))
	for id, b := range segs {
		state[id] = append([]byte(nil), b...)
	}
	comps := make([]RingCompletion, len(entries))
	failed := false // current chain failed
	for i, e := range entries {
		comps[i].Index = i
		if i > 0 && e.Chain {
			if failed {
				comps[i].Err = ErrSkipped
				continue
			}
		} else {
			failed = false
		}
		data, ok := state[e.Seg.Object]
		var err error
		switch {
		case !ok:
			err = ErrNoSuchObject
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
			case OpSync:
				synced[e.Seg.Object] = true
				err = poison[uint64(e.Seg.Object)]
			}
		}
		if err != nil {
			comps[i].Err = err
			failed = true
		}
	}
	return comps, state, synced
}

// propEnv is one kernel of the three-path property test: nSegs segments —
// created plain, or cloned from a golden snapshot so they start frozen —
// each also mapped at mapVA(i) in the boot thread's address space, and all
// persistent on the kernel's own fake pager (a clone is from birth; a plain
// segment is marked).
type propEnv struct {
	k       *Kernel
	tc      *ThreadCall
	pager   *fakePager
	as      CEnt
	lineage uint64 // 0: plain segments
	golden  []ID
	segs    []CEnt
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
		info, err := tc.ContainerSnapshot(CEnt{root, golden}, "prop golden")
		if err != nil {
			t.Fatal(err)
		}
		env.lineage = info.Lineage
	}
	env.fresh(t)
	return env
}

// fresh gives the environment a new set of segments (for a cloned one, a new
// clone: frozen, sharing the golden bytes) and maps them.
func (env *propEnv) fresh(t *testing.T) {
	t.Helper()
	root := env.k.RootContainer()
	env.segs = env.segs[:0]
	if env.lineage == 0 {
		for i := 0; i < propSegs; i++ {
			id, err := env.tc.SegmentCreate(root, label.New(label.L1), "prop seg", propSegSize)
			if err != nil {
				t.Fatal(err)
			}
			if err := env.tc.SegmentPersist(CEnt{root, id}); err != nil {
				t.Fatal(err)
			}
			env.segs = append(env.segs, CEnt{root, id})
		}
	} else {
		res, err := env.tc.ContainerClone(env.lineage, root, nil)
		if err != nil {
			t.Fatal(err)
		}
		for _, old := range env.golden {
			env.segs = append(env.segs, CEnt{res.Root, res.IDMap[old]})
		}
	}
	maps := make([]Mapping, len(env.segs))
	for i, ce := range env.segs {
		maps[i] = Mapping{VA: mapVA(i), Seg: ce, NPages: 1, Flags: MapRead | MapWrite}
	}
	if err := env.tc.AddressSpaceSet(env.as, maps); err != nil {
		t.Fatal(err)
	}
}

// replay executes entries one at a time in submission order with the ring's
// chain-skip rule, each through exec, and returns what a ring would have
// completed.  OpSync has no direct or memory form: each one that is not
// skipped goes through sync — a ring of that one entry — and, as in the ring's
// own pass order, after every other entry of the batch (the generator never
// chains anything behind a sync, so deferring one changes no verdict).
func replay(entries []RingEntry, sync func(CEnt) error, exec func(e RingEntry, c *RingCompletion) error) []RingCompletion {
	comps := make([]RingCompletion, len(entries))
	var syncs []int
	failed := false
	for i, e := range entries {
		comps[i].Index = i
		if i == 0 || !e.Chain {
			failed = false
		}
		if failed {
			comps[i].Err = ErrSkipped
			continue
		}
		if e.Op == OpSync {
			syncs = append(syncs, i)
			continue
		}
		comps[i].Err = exec(e, &comps[i])
		failed = comps[i].Err != nil
	}
	for _, i := range syncs {
		comps[i].Err = sync(entries[i].Seg)
	}
	return comps
}

// syncOne is an fsync of one segment: a ring of one OpSync entry.
func (env *propEnv) syncOne(ce CEnt) error {
	r := env.tc.NewRing()
	r.Submit(RingEntry{Op: OpSync, Seg: ce})
	comps, err := r.Wait(1)
	if err != nil {
		return err
	}
	return comps[0].Err
}

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
// post-state on every path — and, for every OpSync that ran, the same bytes in
// the pager, from the same number of pushes.
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
		segs := make(map[ID][]byte, nSegs)
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
			ce := env.segs[rng.Intn(nSegs)]
			// The sequential model describes exactly the ring's ordering
			// guarantee (see ring.go): intra-chain order plus submission
			// order among same-keyed chains.  So generated chains stay on
			// one object (a cross-object chain's later entries may legally
			// reorder against other chains) and never continue past an
			// OpSync (those entries execute in a later pass).  Cross-object
			// and chain-after-sync semantics are pinned down by
			// TestRingChainSkip and TestRingSyncGroups instead.
			chain := i > 0 && entries[i-1].Op != OpSync && rng.Intn(3) == 0
			if chain {
				ce = entries[i-1].Seg
			}
			e := RingEntry{Seg: ce, Chain: chain}
			switch rng.Intn(6) {
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
				e.Op = OpSync
			case 5:
				// Error injector: invalid offset fails the entry (and, via
				// chains, skips dependents).
				e.Op = OpSegmentRead
				e.Off = -1
			}
			entries[i] = e
		}

		wantComps, wantState, synced := modelExec(entries, segs, quota, env.pager.poison)
		var got [3][]RingCompletion
		ring.Submit(entries...)
		var err error
		if got[0], err = ring.Wait(n); err != nil {
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
				if id := env.segs[s].Object; synced[id] && !bytes.Equal(envs[p].pager.data[uint64(ce.Object)], wantState[id]) {
					t.Fatalf("round %d %s: segment %d was synced, but the pager does not hold its bytes", round, paths[p], s)
				}
			}
			if a, b := envs[0].pager.puts, envs[p].pager.puts; a != b {
				t.Fatalf("round %d: the ring has pushed %d times, %s %d", round, a, paths[p], b)
			}
		}
	}
	if st := envs[0].k.SnapshotStats(); cloned && st.CowBreaks == 0 {
		t.Error("the cloned run broke no COW: it never wrote a frozen segment")
	}
	if envs[0].pager.puts == 0 {
		t.Error("no OpSync ever pushed a segment")
	}
}

// TestRingChainSkip pins down chain semantics: an error skips every chained
// dependent (cascading), and the next unchained entry starts fresh.
func TestRingChainSkip(t *testing.T) {
	env := newRingEnv(t, 1, 64)
	seg := env.segs[0]
	ring := env.tc.NewRing()
	ring.Submit(
		RingEntry{Op: OpSegmentWrite, Seg: seg, Off: 0, Data: []byte("ab")},
		RingEntry{Op: OpSegmentRead, Seg: seg, Off: -1, Chain: true}, // fails: ErrInvalid
		RingEntry{Op: OpSegmentRead, Seg: seg, Off: 0, Len: 2, Chain: true},
		RingEntry{Op: OpSegmentLen, Seg: seg, Chain: true},
		RingEntry{Op: OpSegmentRead, Seg: seg, Off: 0, Len: 2}, // unchained: runs
	)
	comps, err := ring.Wait(5)
	if err != nil {
		t.Fatal(err)
	}
	if comps[0].Err != nil {
		t.Errorf("entry 0: %v", comps[0].Err)
	}
	if !errors.Is(comps[1].Err, ErrInvalid) {
		t.Errorf("entry 1 err = %v, want ErrInvalid", comps[1].Err)
	}
	for i := 2; i <= 3; i++ {
		if !errors.Is(comps[i].Err, ErrSkipped) {
			t.Errorf("entry %d err = %v, want ErrSkipped", i, comps[i].Err)
		}
	}
	if comps[4].Err != nil || string(comps[4].Val) != "ab" {
		t.Errorf("entry 4 = (%q, %v), want (\"ab\", nil)", comps[4].Val, comps[4].Err)
	}
}

// TestRingSyncGroups checks that every OpSync runnable in one pass reaches
// the pager as a single group, and that entries chained after a failed sync
// are skipped.
func TestRingSyncGroups(t *testing.T) {
	env := newRingEnv(t, 3, 64)
	rs := newFakePager()
	rs.poison = map[uint64]error{uint64(env.segs[2].Object): errors.New("bad disk")}
	env.k.SetPager(rs)
	ring := env.tc.NewRing()
	ring.Submit(
		RingEntry{Op: OpSync, Seg: env.segs[0]},
		RingEntry{Op: OpSync, Seg: env.segs[1]},
		RingEntry{Op: OpSync, Seg: env.segs[2]},
		RingEntry{Op: OpSegmentLen, Seg: env.segs[2], Chain: true}, // skipped: its sync failed
	)
	comps, err := ring.Wait(4)
	if err != nil {
		t.Fatal(err)
	}
	if comps[0].Err != nil || comps[1].Err != nil {
		t.Errorf("healthy syncs failed: %v, %v", comps[0].Err, comps[1].Err)
	}
	if comps[2].Err == nil || !errors.Is(comps[3].Err, ErrSkipped) {
		t.Errorf("poisoned sync chain = (%v, %v), want (error, ErrSkipped)", comps[2].Err, comps[3].Err)
	}
	if len(rs.groups) != 1 || len(rs.groups[0]) != 3 {
		t.Fatalf("pager saw groups %v, want one group of 3", rs.groups)
	}
	st := env.k.RingStats()
	if st.SyncGroups != 1 || st.SyncEntries != 3 {
		t.Errorf("RingStats sync groups/entries = %d/%d, want 1/3", st.SyncGroups, st.SyncEntries)
	}
}

// TestRingSyncResolvesItsEntry checks that an OpSync entry is resolved like
// every other op before it joins the group: an entry naming an object through
// a container the thread cannot read, or through one that does not link it,
// completes with the resolution error, fails its chain and never reaches the
// pager — whose answer would otherwise tell the thread whether an object it
// cannot name is, say, quarantined — while a good entry in the same batch
// still syncs.
func TestRingSyncResolvesItsEntry(t *testing.T) {
	env := newRingEnv(t, 2, 64)
	root := env.k.RootContainer()
	// A container only the category's owner can read, holding one segment.
	c, err := env.tc.CategoryCreate()
	if err != nil {
		t.Fatal(err)
	}
	secretLbl := label.New(label.L1, label.P(c, label.L3))
	secretCt, err := env.tc.ContainerCreate(root, secretLbl, "secret", 0, QuotaInfinite)
	if err != nil {
		t.Fatal(err)
	}
	secretSeg, err := env.tc.SegmentCreate(secretCt, secretLbl, "secret seg", 8)
	if err != nil {
		t.Fatal(err)
	}
	tid, err := env.tc.ThreadCreate(root, ThreadSpec{Label: label.New(label.L1), Clearance: label.New(label.L2)})
	if err != nil {
		t.Fatal(err)
	}
	outsider, err := env.k.ThreadCall(tid)
	if err != nil {
		t.Fatal(err)
	}

	rs := newFakePager()
	rs.poison = map[uint64]error{uint64(secretSeg): errors.New("quarantined")}
	env.k.SetPager(rs)
	ring := outsider.NewRing()
	ring.Submit(
		RingEntry{Op: OpSync, Seg: CEnt{secretCt, secretSeg}},      // unreadable container
		RingEntry{Op: OpSegmentLen, Seg: env.segs[0], Chain: true}, // skipped with it
		RingEntry{Op: OpSync, Seg: CEnt{root, secretSeg}},          // root does not link it
		RingEntry{Op: OpSync, Seg: env.segs[1]},                    // good
		RingEntry{Op: OpSegmentLen, Seg: env.segs[1], Chain: true}, // runs after its sync
	)
	comps, err := ring.Wait(5)
	if err != nil {
		t.Fatal(err)
	}
	if !errors.Is(comps[0].Err, ErrLabel) || !errors.Is(comps[1].Err, ErrSkipped) {
		t.Errorf("sync through an unreadable container = (%v, %v), want (ErrLabel, ErrSkipped)", comps[0].Err, comps[1].Err)
	}
	if !errors.Is(comps[2].Err, ErrNoSuchObject) {
		t.Errorf("sync of an unlinked object = %v, want ErrNoSuchObject", comps[2].Err)
	}
	if comps[3].Err != nil || comps[4].Err != nil || comps[4].N != 64 {
		t.Errorf("good sync chain = (%v, %v, len %d), want (nil, nil, 64)", comps[3].Err, comps[4].Err, comps[4].N)
	}
	if len(rs.groups) != 1 || len(rs.groups[0]) != 1 || rs.groups[0][0] != uint64(env.segs[1].Object) {
		t.Errorf("pager saw groups %v, want exactly [[%d]]", rs.groups, env.segs[1].Object)
	}
	if st := env.k.RingStats(); st.SyncGroups != 1 || st.SyncEntries != 1 {
		t.Errorf("RingStats sync groups/entries = %d/%d, want 1/1", st.SyncGroups, st.SyncEntries)
	}
}

// TestRingCountsAndCoalescing checks the accounting satellite: one
// ring_submit per Wait, per-entry counts in the normal per-syscall counters,
// and a same-target batch coalescing to a single lock run.
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
	if counts["ring_submit"] != 1 {
		t.Errorf("ring_submit = %d, want 1", counts["ring_submit"])
	}
	if counts["segment_read"] != 2 || counts["segment_len"] != 1 || counts["segment_write"] != 1 {
		t.Errorf("per-entry counts = %v", counts)
	}
	st := env.k.RingStats()
	if waits, entries := st.Waits-before.Waits, st.Entries-before.Entries; waits != 1 || entries != 4 {
		t.Errorf("RingStats waits/entries = %d/%d, want 1/4", waits, entries)
	}
	// Three same-target entries + one other: two lock runs, two coalesced.
	if runs, coalesced := st.Runs-before.Runs, st.Coalesced-before.Coalesced; runs != 2 || coalesced != 2 {
		t.Errorf("RingStats runs/coalesced = %d/%d, want 2/2", runs, coalesced)
	}
}

// TestRingConcurrentOverlap is the -race stress: many threads submit
// batches over overlapping objects, mixing chained writes, reads, resizes,
// and syncs through the kernel's pager.
func TestRingConcurrentOverlap(t *testing.T) {
	const nWorkers, nBatches = 8, 60
	env := newRingEnv(t, 4, 256)
	env.k.SetPager(newFakePager())
	var wg sync.WaitGroup
	errCh := make(chan error, nWorkers)
	for w := 0; w < nWorkers; w++ {
		tc := spawnWorker(t, env.k, env.tc, fmt.Sprintf("ring worker %d", w))
		wg.Add(1)
		go func(w int, tc *ThreadCall) {
			defer wg.Done()
			rng := rand.New(rand.NewSource(int64(w)))
			ring := tc.NewRing()
			for b := 0; b < nBatches; b++ {
				n := 1 + rng.Intn(8)
				for i := 0; i < n; i++ {
					ce := env.segs[rng.Intn(len(env.segs))]
					e := RingEntry{Seg: ce, Chain: i > 0 && rng.Intn(4) == 0}
					switch rng.Intn(5) {
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
					case 4:
						e.Op = OpSync
					}
					ring.Submit(e)
				}
				comps, err := ring.Wait(n)
				if err != nil {
					select {
					case errCh <- fmt.Errorf("worker %d Wait: %w", w, err):
					default:
					}
					return
				}
				for i := range comps {
					if comps[i].Err != nil && !errors.Is(comps[i].Err, ErrSkipped) {
						select {
						case errCh <- fmt.Errorf("worker %d entry: %w", w, comps[i].Err):
						default:
						}
						return
					}
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

// TestRingGateEnterChainedReplyRead is the demux pattern OpGateEnter exists
// for: the gate entry writes a reply into a segment only the post-entry
// label may observe, and a chained OpSegmentRead in the same batch reads it
// back — which only works because the ring refreshes its thread snapshot
// after the gate transfer.
func TestRingGateEnterChainedReplyRead(t *testing.T) {
	k, tc := boot(t)
	root := k.RootContainer()
	u, _ := tc.CategoryCreateNamed("u")

	reply, err := tc.SegmentCreate(root, label.New(label.L1, label.P(u, label.L3)), "reply", 64)
	if err != nil {
		t.Fatal(err)
	}
	gateID, err := tc.GateCreate(root, GateSpec{
		Label:     label.New(label.L1, label.P(u, label.Star)),
		Clearance: label.New(label.L2),
		Descrip:   "session gate",
		Entry: func(call *GateCallCtx) []byte {
			if err := call.TC.SegmentWrite(CEnt{root, reply}, 0, append([]byte("re:"), call.Args...)); err != nil {
				return []byte("write failed: " + err.Error())
			}
			return []byte("ok")
		},
	})
	if err != nil {
		t.Fatal(err)
	}

	// An unprivileged client cannot read the reply segment directly.
	tid, _ := tc.ThreadCreate(root, ThreadSpec{Label: label.New(label.L1), Clearance: label.New(label.L2), Descrip: "client"})
	tc2, _ := k.ThreadCall(tid)
	if _, err := tc2.SegmentRead(CEnt{root, reply}, 0, 8); err == nil {
		t.Fatal("client must not read the reply segment before the gate call")
	}

	ring := tc2.NewRing()
	ring.Submit(
		RingEntry{Op: OpGateEnter, Seg: CEnt{root, gateID}, Gate: &GateRequest{
			Label:     label.New(label.L1, label.P(u, label.Star)),
			Clearance: label.New(label.L2),
			Verify:    label.New(label.L1),
			Args:      []byte("req1"),
		}},
		RingEntry{Op: OpSegmentRead, Seg: CEnt{root, reply}, Off: 0, Len: 7, Chain: true},
	)
	comps, err := ring.Wait(2)
	if err != nil {
		t.Fatal(err)
	}
	if comps[0].Err != nil || string(comps[0].Val) != "ok" {
		t.Fatalf("gate completion: val=%q err=%v", comps[0].Val, comps[0].Err)
	}
	if comps[1].Err != nil || string(comps[1].Val) != "re:req1" {
		t.Fatalf("chained reply read: val=%q err=%v", comps[1].Val, comps[1].Err)
	}
	if st := k.RingStats(); st.GateCalls != 1 {
		t.Errorf("GateCalls = %d, want 1", st.GateCalls)
	}
	// The thread keeps the label it acquired, as after a direct GateEnter.
	lbl, _ := tc2.SelfLabel()
	if !lbl.Owns(u) {
		t.Error("client should own u after the ring gate call")
	}
}

// TestRingGateEnterFailureSkipsChain checks that a rejected gate request
// fails its own chain (the reply read is skipped) without poisoning an
// independent chain in the same batch.
func TestRingGateEnterFailureSkipsChain(t *testing.T) {
	k, tc := boot(t)
	root := k.RootContainer()
	v, _ := tc.CategoryCreate()

	seg, _ := tc.SegmentCreate(root, label.New(label.L1), "plain", 8)
	_ = tc.SegmentWrite(CEnt{root, seg}, 0, []byte("plain!"))
	gateID, _ := tc.GateCreate(root, GateSpec{
		Label:     label.New(label.L1),
		Clearance: label.New(label.L2),
		Entry:     func(call *GateCallCtx) []byte { return []byte("ok") },
	})

	// Client tainted v2 tries to shed the taint across the gate: ErrLabel.
	tid, _ := tc.ThreadCreate(root, ThreadSpec{
		Label:     label.New(label.L1, label.P(v, label.L2)),
		Clearance: label.New(label.L2),
	})
	tc2, _ := k.ThreadCall(tid)
	ring := tc2.NewRing()
	ring.Submit(
		RingEntry{Op: OpGateEnter, Seg: CEnt{root, gateID}, Gate: &GateRequest{
			Label:     label.New(label.L1), // sheds v2: rejected
			Clearance: label.New(label.L2),
			Verify:    label.New(label.L1, label.P(v, label.L2)),
		}},
		RingEntry{Op: OpSegmentRead, Seg: CEnt{root, seg}, Off: 0, Len: 6, Chain: true},
		// Independent chain: must execute despite the failure above.
		RingEntry{Op: OpSegmentRead, Seg: CEnt{root, seg}, Off: 0, Len: 6},
	)
	comps, err := ring.Wait(3)
	if err != nil {
		t.Fatal(err)
	}
	if !errors.Is(comps[0].Err, ErrLabel) {
		t.Errorf("gate completion err = %v, want ErrLabel", comps[0].Err)
	}
	if !errors.Is(comps[1].Err, ErrSkipped) {
		t.Errorf("chained read err = %v, want ErrSkipped", comps[1].Err)
	}
	if comps[2].Err != nil || string(comps[2].Val) != "plain!" {
		t.Errorf("independent read: val=%q err=%v", comps[2].Val, comps[2].Err)
	}
	// The failed transfer must not have changed the thread's label.
	lbl, _ := tc2.SelfLabel()
	if lbl.Get(v) != label.L2 {
		t.Errorf("thread label changed by failed gate entry: %v", lbl)
	}
}

// TestRingGateEnterWrongType rejects OpGateEnter aimed at a non-gate.
func TestRingGateEnterWrongType(t *testing.T) {
	env := newRingEnv(t, 1, 64)
	ring := env.tc.NewRing()
	ring.Submit(RingEntry{Op: OpGateEnter, Seg: env.segs[0], Gate: &GateRequest{
		Label:     label.New(label.L1),
		Clearance: label.New(label.L2),
		Verify:    label.New(label.L1),
	}})
	comps, err := ring.Wait(1)
	if err != nil {
		t.Fatal(err)
	}
	if !errors.Is(comps[0].Err, ErrWrongType) {
		t.Errorf("err = %v, want ErrWrongType", comps[0].Err)
	}
}

// TestRingGateEnterMultipleSessions batches two independent
// gate-call+reply-read chains — two "sessions" with disjoint categories —
// in one Wait, verifying the snapshot refresh keeps each chain's read under
// the right label and neither session's privilege leaks into the other's
// transfer.
func TestRingGateEnterMultipleSessions(t *testing.T) {
	k, tc := boot(t)
	root := k.RootContainer()

	type sess struct {
		gate, reply ID
		cat         label.Category
	}
	var sessions []sess
	for i := 0; i < 2; i++ {
		c, _ := tc.CategoryCreateNamed(fmt.Sprintf("u%d", i))
		reply, err := tc.SegmentCreate(root, label.New(label.L1, label.P(c, label.L3)), fmt.Sprintf("reply%d", i), 64)
		if err != nil {
			t.Fatal(err)
		}
		msg := fmt.Sprintf("user%d-data", i)
		gateID, err := tc.GateCreate(root, GateSpec{
			Label:     label.New(label.L1, label.P(c, label.Star)),
			Clearance: label.New(label.L2),
			Entry: func(call *GateCallCtx) []byte {
				if err := call.TC.SegmentWrite(CEnt{root, reply}, 0, []byte(msg)); err != nil {
					return []byte("ERR")
				}
				return []byte("ok")
			},
		})
		if err != nil {
			t.Fatal(err)
		}
		sessions = append(sessions, sess{gate: gateID, reply: reply, cat: c})
	}

	tid, _ := tc.ThreadCreate(root, ThreadSpec{Label: label.New(label.L1), Clearance: label.New(label.L2), Descrip: "demux lane"})
	lane, _ := k.ThreadCall(tid)
	ring := lane.NewRing()
	for _, s := range sessions {
		ring.Submit(
			RingEntry{Op: OpGateEnter, Seg: CEnt{root, s.gate}, Gate: &GateRequest{
				Label:     label.New(label.L1, label.P(s.cat, label.Star)),
				Clearance: label.New(label.L2),
				Verify:    label.New(label.L1),
			}},
			RingEntry{Op: OpSegmentRead, Seg: CEnt{root, s.reply}, Off: 0, Len: 10, Chain: true},
		)
	}
	comps, err := ring.Wait(4)
	if err != nil {
		t.Fatal(err)
	}
	for i := range sessions {
		gc, rc := comps[2*i], comps[2*i+1]
		if gc.Err != nil || string(gc.Val) != "ok" {
			t.Errorf("session %d gate: val=%q err=%v", i, gc.Val, gc.Err)
		}
		want := fmt.Sprintf("user%d-data", i)
		if rc.Err != nil || string(rc.Val) != want {
			t.Errorf("session %d reply = %q (err=%v), want %q", i, rc.Val, rc.Err, want)
		}
	}
	if st := k.RingStats(); st.GateCalls != 2 {
		t.Errorf("GateCalls = %d, want 2", st.GateCalls)
	}
}
