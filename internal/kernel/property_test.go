package kernel

import (
	"bytes"
	"encoding/binary"
	"errors"
	"math/rand"
	"testing"

	"histar/internal/label"
)

// A randomized property test of the segment and stat calls against a
// sequential reference model, made two ways — as direct system calls and as
// loads and stores through a mapping — including error propagation, label
// denials, fsyncs and poisoned commits.

// propOp selects what one step of a property-test sequence does.
type propOp int

const (
	propRead   propOp = iota // read n bytes at off
	propLen                  // the segment's length
	propWrite                // write data at off
	propResize               // set the length to n
	propSync                 // an fsync of the segment: a SyncSegments call of its own
	propStat                 // stat the object seg (a thread)
)

// propStep is one step: an op and its arguments.
type propStep struct {
	op     propOp
	seg    CEnt
	off, n int
	data   []byte
}

// propResult is one step's result.
type propResult struct {
	val  []byte // propRead
	n    int    // bytes read or written, or the segment's length
	stat Stat   // propStat
	err  error
}

// modelExec executes steps sequentially against plain byte slices — the
// reference semantics every path must match.  The segments in readOnly may
// be observed but not modified: a write, resize or sync of one is ErrLabel.
// A propStat names a thread in threads, and is ErrLabel where the thread maps
// to false (its label, read raised, is not below the caller's).  It returns,
// for every segment a propSync pushed (whatever the commit answered), the
// bytes it held at its last such sync.
func modelExec(steps []propStep, segs map[ID][]byte, quota map[ID]uint64, readOnly, threads map[ID]bool, poison map[uint64]error) ([]propResult, map[ID][]byte, map[ID][]byte) {
	synced := make(map[ID][]byte)
	state := make(map[ID][]byte, len(segs))
	for id, b := range segs {
		state[id] = append([]byte(nil), b...)
	}
	res := make([]propResult, len(steps))
	for i, e := range steps {
		data, ok := state[e.seg.Object]
		var err error
		switch {
		case e.op == propStat:
			if !threads[e.seg.Object] {
				err = ErrLabel
			}
		case !ok:
			err = ErrNoSuchObject
		case readOnly[e.seg.Object] && (e.op == propWrite || e.op == propResize || e.op == propSync):
			err = ErrLabel
		default:
			switch e.op {
			case propRead:
				if e.off < 0 || e.n < 0 || e.off > len(data) {
					err = ErrInvalid
					break
				}
				end := len(data)
				if e.n < end-e.off {
					end = e.off + e.n
				}
				res[i].val = append([]byte(nil), data[e.off:end]...)
				res[i].n = len(res[i].val)
			case propLen:
				res[i].n = len(data)
			case propWrite:
				if e.off < 0 {
					err = ErrInvalid
					break
				}
				end := e.off + len(e.data)
				if uint64(end)+128 > quota[e.seg.Object] && end > len(data) {
					err = ErrQuota
					break
				}
				if end > len(data) {
					grown := make([]byte, end)
					copy(grown, data)
					data = grown
				}
				copy(data[e.off:], e.data)
				state[e.seg.Object] = data
				res[i].n = len(e.data)
			case propResize:
				if e.n < 0 {
					err = ErrInvalid
					break
				}
				if uint64(e.n)+128 > quota[e.seg.Object] {
					err = ErrQuota
					break
				}
				if e.n <= len(data) {
					state[e.seg.Object] = data[:e.n]
				} else {
					grown := make([]byte, e.n)
					copy(grown, data)
					state[e.seg.Object] = grown
				}
			case propSync:
				synced[e.seg.Object] = append([]byte(nil), data...)
				err = poison[uint64(e.seg.Object)]
			}
		}
		res[i].err = err
	}
	return res, state, synced
}

// propEnv is one kernel of the two-path property test: propSegs segments —
// created plain, or copied from golden segments so they start frozen — and
// after them one segment the boot thread may observe but not modify, each
// mapped read-write at mapVA(i) in the boot thread's address space, and all
// marked persistent on the kernel's own fake pager.  Two threads are there
// to be stat'ed: one labeled like the boot thread, and one owning the
// category the boot thread gave up, whose label the boot thread may not read
// (LT′ᴶ ⊑ LTᴶ fails).
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

// syncOne is an fsync of one segment.
func (env *propEnv) syncOne(ce CEnt) error { return env.tc.SyncSegments(ce) }

// directExec is one step as the direct system call of the same name.
func (env *propEnv) directExec(e propStep) (r propResult) {
	switch e.op {
	case propRead:
		r.val, r.err = env.tc.SegmentRead(e.seg, e.off, e.n)
		r.n = len(r.val)
	case propLen:
		r.n, r.err = env.tc.SegmentLen(e.seg)
	case propWrite:
		if r.err = env.tc.SegmentWrite(e.seg, e.off, e.data); r.err == nil {
			r.n = len(e.data)
		}
	case propResize:
		r.err = env.tc.SegmentResize(e.seg, e.n)
	case propSync:
		r.err = env.syncOne(e.seg)
	case propStat:
		r.stat, r.err = env.tc.ObjectStat(e.seg)
	}
	return r
}

// memExec is one step as a load or store through the segment's mapping.
// What an address cannot express — a length query, a resize, a sync, a stat,
// an offset below the mapping — goes through the direct call, so the state
// stays in step.
func (env *propEnv) memExec(e propStep) (r propResult) {
	idx := -1
	for i, ce := range env.segs {
		if ce == e.seg {
			idx = i
		}
	}
	switch {
	case e.off < 0 || idx < 0:
		return env.directExec(e)
	case e.op == propRead:
		r.val, r.err = env.tc.MemRead(mapVA(idx)+uint64(e.off), e.n)
		r.n = len(r.val)
	case e.op == propWrite:
		if r.err = env.tc.MemWrite(mapVA(idx)+uint64(e.off), e.data); r.err == nil {
			r.n = len(e.data)
		}
	default:
		return env.directExec(e)
	}
	return r
}

// TestPropertyVsSequential drives the same random sequences down two paths —
// direct system calls, and loads/stores through a mapping — on two
// identically built kernels, once over plain segments and once over frozen
// clones of a golden image, and checks every result, every final segment
// state and the COW counters of both against the sequential reference model:
// the same allow/deny verdict and the same post-state on every path — and,
// for every segment a sync pushed, the bytes it held at its last sync in the
// pager, from the same number of pushes.  Some steps aim at a segment the
// thread can observe but not modify, where every write, resize and sync is
// ErrLabel.  Every push on every path must also keep its range's promise
// (fakePager.outside): a byte outside the range is the byte the previous push
// held, whichever mutation came between — a direct or mapped write, a resize,
// a compare-and-swap, a thread-local write, a copy-on-write break — and none
// of them may write an array a push handed over (fakePager.tampered).
func TestPropertyVsSequential(t *testing.T) {
	for _, v := range []struct {
		name   string
		cloned bool
	}{{"plain", false}, {"cloned", true}} {
		t.Run(v.name, func(t *testing.T) { propertyVsSequential(t, v.cloned) })
	}
}

func propertyVsSequential(t *testing.T, cloned bool) {
	const nSegs, segSize = propSegs, propSegSize
	paths := []string{"direct", "mem"}
	var envs [2]*propEnv
	for i := range envs {
		envs[i] = newPropEnv(t, cloned)
	}
	rng := rand.New(rand.NewSource(42))

	poisonErr := errors.New("poisoned sync")
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
		steps := make([]propStep, n)
		for i := range steps {
			e := propStep{seg: env.segs[rng.Intn(len(env.segs))]}
			switch rng.Intn(7) {
			case 0:
				e.op = propRead
				e.off, e.n = rng.Intn(segSize), rng.Intn(2*segSize)
			case 1:
				e.op = propLen
			case 2:
				e.op = propWrite
				e.off = rng.Intn(segSize)
				e.data = bytes.Repeat([]byte{byte(round), byte(i)}, 1+rng.Intn(16))
			case 3:
				e.op = propResize
				e.n = rng.Intn(2 * segSize)
			case 4:
				e.op = propSync
			case 5:
				// Error injector: an invalid offset fails the step.
				e.op = propRead
				e.off = -1
			case 6:
				e.op, e.seg = propStat, env.peer
				if rng.Intn(2) == 0 {
					e.seg = env.owner
				}
			}
			steps[i] = e
		}

		want, wantState, synced := modelExec(steps, segs, quota, readOnly, threads, env.pager.poison)
		for _, r := range want {
			if errors.Is(r.err, ErrLabel) {
				denied++
			}
		}
		for p, pe := range envs {
			// The same steps aimed at this kernel's own segments.
			exec := pe.directExec
			if paths[p] == "mem" {
				exec = pe.memExec
			}
			for i, e := range steps {
				for s, ce := range env.segs {
					if ce == steps[i].seg {
						e.seg = pe.segs[s]
					}
				}
				switch steps[i].seg {
				case env.peer:
					e.seg = pe.peer
				case env.owner:
					e.seg = pe.owner
				}
				got := exec(e)
				if !errors.Is(got.err, want[i].err) {
					t.Fatalf("round %d %s step %d (%v): err=%v, model err=%v", round, paths[p], i, e.op, got.err, want[i].err)
				}
				if want[i].err == nil && got.err == nil {
					if e.op == propStat && (got.stat.Type != ObjThread || !got.stat.Label.Equal(label.New(label.L1))) {
						t.Fatalf("round %d %s step %d: stat of the peer thread = %+v", round, paths[p], i, got.stat)
					}
					if !bytes.Equal(got.val, want[i].val) || got.n != want[i].n {
						t.Fatalf("round %d %s step %d (%v): result n=%d val=%q, model n=%d val=%q",
							round, paths[p], i, e.op, got.n, got.val, want[i].n, want[i].val)
					}
				}
			}
			for s, ce := range pe.segs {
				buf, err := pe.tc.SegmentRead(ce, 0, 1<<20)
				if err != nil {
					t.Fatalf("round %d %s: final read: %v", round, paths[p], err)
				}
				if !bytes.Equal(buf, wantState[env.segs[s].Object]) {
					t.Fatalf("round %d %s: segment %d state diverged from model", round, paths[p], s)
				}
				if want, ok := synced[env.segs[s].Object]; ok && !bytes.Equal(pe.pager.data[uint64(ce.Object)], want) {
					t.Fatalf("round %d %s: segment %d was synced, but the pager does not hold its bytes at that sync", round, paths[p], s)
				}
			}
		}
		if a, b := envs[0].k.SnapshotStats(), envs[1].k.SnapshotStats(); a != b {
			t.Fatalf("round %d: COW counters diverged: direct %+v, mem %+v", round, a, b)
		}
		if a, b := len(envs[0].pager.pushed), len(envs[1].pager.pushed); a != b {
			t.Fatalf("round %d: the direct path has pushed %d times, mem %d", round, a, b)
		}
		// What the model does not carry, the same on every path's kernel: a
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
			if tampered := e.pager.audited(); len(tampered) > 0 {
				t.Fatalf("round %d %s: %s", round, paths[p], tampered[0])
			}
		}
	}
	if st := envs[0].k.SnapshotStats(); cloned && st.CowBreaks == 0 {
		t.Error("the cloned run broke no COW: it never wrote a frozen segment")
	}
	if len(envs[0].pager.pushed) == 0 {
		t.Error("no sync ever pushed a segment")
	}
	if denied == 0 {
		t.Error("no step was ever refused by the labels")
	}
}
