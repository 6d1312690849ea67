package kernel

import (
	"sync"

	"histar/internal/label"
)

// GateSpec describes a gate to be created.
type GateSpec struct {
	// Label is the gate label LG; it may contain ⋆, which is how privilege
	// is stored in a gate for later transfer.
	Label label.Label
	// Clearance is the gate clearance CG; a thread may invoke the gate only
	// if its label is below CG, so clearances gate who may call.
	Clearance label.Label
	// AddressSpace is the address space the entering thread switches to.
	AddressSpace CEnt
	// Entry is the entry point function.
	Entry GateEntry
	// Closure is fixed data passed to every invocation (the paper's closure
	// arguments, e.g. the object ID of the retry-count segment).
	Closure []byte
	// Descrip is the descriptive string.
	Descrip string
}

// GateCreate creates a gate in container d (Section 3.5).  A thread T′ can
// only allocate a gate G whose label and clearance satisfy
// LT′ ⊑ LG ⊑ CG ⊑ CT′.
func (tc *ThreadCall) GateCreate(d ID, spec GateSpec) (ID, error) {
	ctx, err := tc.enter(scGateCreate)
	if err != nil {
		return NilID, err
	}
	if spec.Entry == nil {
		return NilID, ErrInvalid
	}
	if !label.ValidThreadLabel(spec.Label) {
		return NilID, ErrInvalid
	}
	cont, err := tc.k.admit(&ctx, d, Mask(ObjGate))
	if err != nil {
		return NilID, err
	}
	// The creator cannot mint privilege it does not have (LT′ ⊑ LG) and the
	// gate's label and clearance are bounded by the creator's clearance
	// (LG ⊑ CT′ and CG ⊑ CT′).  The paper states the rule as
	// LT′ ⊑ LG ⊑ CG ⊑ CT′, but its own Figure 10 grant gate — label
	// {ur⋆, uw⋆, 1} with clearance {x0, 2} — has LG(x)=1 > CG(x)=0, so the
	// LG ⊑ CG conjunct cannot be meant literally; gate clearances are purely
	// a bound on callers (LT ⊑ CG at invocation), which the remaining
	// conjuncts preserve.
	if !ctx.lbl.Leq(spec.Label) ||
		!spec.Label.LowerStar().Leq(ctx.clearance) ||
		!spec.Clearance.Leq(ctx.clearance) {
		return NilID, ErrLabel
	}
	// The externally visible object label strips ownership so that possession
	// of the gate's container entry does not reveal what the gate can untaint.
	return tc.k.create(cont, &gate{
		header:       tc.k.newHeader(ObjGate, spec.Label.LowerStar(), 8*1024, spec.Descrip),
		gateLabel:    spec.Label,
		clearance:    spec.Clearance,
		addressSpace: spec.AddressSpace,
		entry:        spec.Entry,
		closureArgs:  append([]byte(nil), spec.Closure...),
	})
}

// GateRequest bundles the labels a thread supplies when invoking a gate.
type GateRequest struct {
	// Label is the requested label LR the thread acquires on entry.
	Label label.Label
	// Clearance is the requested clearance CR acquired on entry.
	Clearance label.Label
	// Verify is the verify label LV, proving possession of categories
	// without granting them across the call; entry code may inspect it.
	Verify label.Label
	// Args is the call payload (conventionally staged in the thread-local
	// segment; passed directly here for convenience).
	Args []byte
}

// GateEnter invokes the gate named by ce.  The checks of Section 3.5 apply:
//
//	LT ⊑ CG,  LT ⊑ LV,  (LTᴶ ⊔ LGᴶ)⋆ ⊑ LR ⊑ CR ⊑ (CT ⊔ CG)
//
// On success the invoking thread's label and clearance become LR and CR, its
// address space becomes the gate's, and the gate's entry point runs on the
// invoking thread (gates have no implicit return — services that want to
// return privilege to the caller use an explicitly created return gate, as
// the user-level library's gate-call convention does).  The entry point's
// result bytes are returned to the invoker for convenience.
func (tc *ThreadCall) GateEnter(ce CEnt, req GateRequest) ([]byte, error) {
	ctx, err := tc.enter(scGateEnter)
	if err != nil {
		return nil, err
	}
	_, g, err := resolve[*gate](tc.k, &ctx, ce, accNone)
	if err != nil {
		return nil, err
	}
	if err := tc.gateEnterTransfer(g, req); err != nil {
		return nil, err
	}
	return tc.gateDispatch(g, req), nil
}

// gateEnterTransfer performs the label checks of Section 3.5 and, if they
// pass, retargets the invoking thread to the requested label/clearance and
// the gate's address space.  The checks compare the thread's label against the
// (immutable) gate, so they run under the thread's write lock, against the
// label as it is now: a concurrent self_set_label must either land before
// the checks or after the transfer, never be overwritten by it.
func (tc *ThreadCall) gateEnterTransfer(g *gate, req GateRequest) error {
	if !label.ValidThreadLabel(req.Label) || !label.ValidClearance(req.Clearance) {
		return ErrInvalid
	}
	t := tc.t
	ls := lockOrdered(objLock{t, true}, objLock{t.localSegment, true})
	gerr := func() error {
		if t.halted {
			return ErrHalted
		}
		// LT ⊑ CG: the gate's clearance bounds who may call it.
		if !t.lbl.Leq(g.clearance) {
			return ErrClearance
		}
		// LT ⊑ LV: the verify label may only claim ownership the thread
		// has.
		if !t.lbl.Leq(req.Verify) {
			return ErrLabel
		}
		// (LTᴶ ⊔ LGᴶ)⋆ ⊑ LR: the requested label must carry at least the
		// taint of both the thread and the gate (ownership from either may
		// appear).  GateMinLeq compares pointwise without materializing the
		// join, keeping the steady-state gate call allocation-free.
		if !label.GateMinLeq(t.lbl, g.gateLabel, req.Label) {
			return ErrLabel
		}
		// LR ⊑ CR ⊑ (CT ⊔ CG).  CR below either bound is below the join, so
		// the common cases (a caller keeping its own clearance, or asking for
		// the gate's) never materialize CT ⊔ CG; only the mixed case pays the
		// join's allocation.
		if !req.Label.Leq(req.Clearance) {
			return ErrClearance
		}
		if !req.Clearance.Leq(t.clearance) && !req.Clearance.Leq(g.clearance) &&
			!req.Clearance.Leq(t.clearance.Join(g.clearance)) {
			return ErrClearance
		}
		// Perform the transfer: the thread now runs with LR/CR in the
		// gate's address space.
		t.lbl = req.Label
		t.clearance = req.Clearance
		if g.addressSpace.Object != NilID {
			t.addressSpace = g.addressSpace
		}
		t.localSegment.lbl = req.Label.LowerStar()
		return nil
	}()
	ls.unlock()
	return gerr
}

// gateCtxPool recycles GateCallCtx allocations across gate calls; see the
// lifetime note on GateCallCtx.
var gateCtxPool = sync.Pool{New: func() any { return new(GateCallCtx) }}

// gateDispatch runs the gate's entry point on the invoking thread with no
// kernel locks held.  The closure slice is passed as-is: closures are
// immutable after GateCreate (which made its own copy), so there is no
// per-call copy.
func (tc *ThreadCall) gateDispatch(g *gate, req GateRequest) []byte {
	call := gateCtxPool.Get().(*GateCallCtx)
	*call = GateCallCtx{
		TC:      tc,
		Verify:  req.Verify,
		Args:    req.Args,
		Closure: g.closureArgs,
	}
	result := g.entry(call)
	*call = GateCallCtx{}
	gateCtxPool.Put(call)
	return result
}
