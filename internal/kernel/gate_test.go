package kernel

import (
	"errors"
	"testing"

	"histar/internal/label"
)

// gateBenchEnv builds a gate plus a steady-state request, the shape of a warm
// webd session call: the caller repeatedly enters the same gate with
// identical labels.
func gateBenchEnv(tb testing.TB) (*ThreadCall, CEnt, GateRequest) {
	tb.Helper()
	k, tc := boot(tb)
	root := k.RootContainer()
	c, _ := tc.CategoryCreate()
	gateID, err := tc.GateCreate(root, GateSpec{
		Label:     label.New(label.L1, label.P(c, label.Star)),
		Clearance: label.New(label.L2),
		Closure:   []byte("closure-bytes"),
		Descrip:   "bench gate",
		Entry:     func(call *GateCallCtx) []byte { return call.Closure },
	})
	if err != nil {
		tb.Fatal(err)
	}
	lbl, _ := tc.SelfLabel()
	clr, _ := tc.SelfClearance()
	req := GateRequest{
		Label:     lbl,
		Clearance: clr,
		Verify:    lbl,
	}
	return tc, CEnt{root, gateID}, req
}

func TestGateEnterZeroAlloc(t *testing.T) {
	tc, gate, req := gateBenchEnv(t)
	// Warm the ctx pool.
	if _, err := tc.GateEnter(gate, req); err != nil {
		t.Fatal(err)
	}
	allocs := testing.AllocsPerRun(100, func() {
		if _, err := tc.GateEnter(gate, req); err != nil {
			t.Fatal(err)
		}
	})
	if allocs != 0 {
		t.Errorf("steady-state GateEnter allocates %.1f times per call, want 0", allocs)
	}
}

// TestSyscallAllocBudget pins the heap allocations of the hot single-object
// calls, each an enter, an open and its body, so a helper that starts to
// allocate (an escaping entry, a boxed completion, a closure) shows up here
// rather than in web_warm or unix_build.
// A create allocates only its segment struct: ids are computed in place and a
// fresh segment's bytes are a share of zeros.
func TestSyscallAllocBudget(t *testing.T) {
	k, tc := boot(t)
	root := k.RootContainer()
	seg, err := tc.SegmentCreate(root, label.New(label.L1), "budget", 64)
	if err != nil {
		t.Fatal(err)
	}
	ce := CEnt{root, seg}
	payload := []byte("sixteen byte msg")
	for _, c := range []struct {
		name string
		want float64
		call func() error
	}{
		{"SegmentWrite", 0, func() error { return tc.SegmentWrite(ce, 0, payload) }},
		{"SegmentLen", 0, func() error { _, err := tc.SegmentLen(ce); return err }},
		{"ObjectStat", 0, func() error { _, err := tc.ObjectStat(ce); return err }},
		{"SegmentRead", 1, func() error { _, err := tc.SegmentRead(ce, 0, 16); return err }},
		{"SegmentWrite+SegmentRead", 1, func() error {
			if err := tc.SegmentWrite(ce, 0, payload); err != nil {
				return err
			}
			_, err := tc.SegmentRead(ce, 0, len(payload))
			return err
		}},
		{"SegmentCreate+Unref", 1, func() error {
			id, err := tc.SegmentCreate(root, label.New(label.L1), "churn", 64)
			if err != nil {
				return err
			}
			return tc.Unref(root, id)
		}},
	} {
		if err := c.call(); err != nil { // warm caches
			t.Fatalf("%s: %v", c.name, err)
		}
		got := testing.AllocsPerRun(100, func() {
			if err := c.call(); err != nil {
				t.Fatalf("%s: %v", c.name, err)
			}
		})
		if got != c.want {
			t.Errorf("%s allocates %.1f times per call, want %.0f", c.name, got, c.want)
		}
	}
}

func TestGateEnterClosureNotCopied(t *testing.T) {
	k, tc := boot(t)
	root := k.RootContainer()
	var first, second *byte
	gateID, _ := tc.GateCreate(root, GateSpec{
		Label:     label.New(label.L1),
		Clearance: label.New(label.L2),
		Closure:   []byte("immutable"),
		Entry: func(call *GateCallCtx) []byte {
			if first == nil {
				first = &call.Closure[0]
			} else {
				second = &call.Closure[0]
			}
			return nil
		},
	})
	req := GateRequest{Label: label.New(label.L1), Clearance: label.New(label.L2), Verify: label.New(label.L1)}
	for i := 0; i < 2; i++ {
		if _, err := tc.GateEnter(CEnt{root, gateID}, req); err != nil {
			t.Fatal(err)
		}
	}
	if first == nil || second == nil {
		t.Fatal("entry did not run twice")
	}
	if first != second {
		t.Error("closure bytes were copied per call; invocations should share the gate's immutable backing")
	}
}

func BenchmarkGateEnter(b *testing.B) {
	tc, gate, req := gateBenchEnv(b)
	if _, err := tc.GateEnter(gate, req); err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := tc.GateEnter(gate, req); err != nil {
			b.Fatal(err)
		}
	}
}

func TestGateTransfersOwnership(t *testing.T) {
	k, tc := boot(t)
	root := k.RootContainer()

	// The boot thread owns a category and stores that privilege in a gate.
	c, _ := tc.CategoryCreate()
	secret, _ := tc.SegmentCreate(root, label.New(label.L1, label.P(c, label.L3)), "secret", 4)
	_ = tc.SegmentWrite(CEnt{root, secret}, 0, []byte("ssh!"))

	gateID, err := tc.GateCreate(root, GateSpec{
		Label:     label.New(label.L1, label.P(c, label.Star)),
		Clearance: label.New(label.L2),
		Descrip:   "privilege gate",
		Entry: func(call *GateCallCtx) []byte {
			// Running with the gate's ownership of c, the entering thread can
			// read the secret.
			data, err := call.TC.SegmentRead(CEnt{root, secret}, 0, 4)
			if err != nil {
				return []byte("DENIED")
			}
			return data
		},
	})
	if err != nil {
		t.Fatal(err)
	}

	// An unprivileged thread cannot read the secret directly...
	tid, _ := tc.ThreadCreate(root, ThreadSpec{Label: label.New(label.L1), Clearance: label.New(label.L2), Descrip: "client"})
	tc2, _ := k.ThreadCall(tid)
	if _, err := tc2.SegmentRead(CEnt{root, secret}, 0, 4); err == nil {
		t.Fatal("client should not read the secret directly")
	}
	// A gate entry aimed at anything but a gate is refused.
	lbl, _ := tc2.SelfLabel()
	clr, _ := tc2.SelfClearance()
	if _, err := tc2.GateEnter(CEnt{root, secret}, GateRequest{Label: lbl, Clearance: clr, Verify: lbl}); !errors.Is(err, ErrWrongType) {
		t.Errorf("gate entry into a segment: %v, want ErrWrongType", err)
	}
	// ...but through the gate, requesting the gate's star, it can.
	out, err := tc2.GateEnter(CEnt{root, gateID}, GateRequest{
		Label:     lbl.With(c, label.Star),
		Clearance: clr,
		Verify:    lbl,
	})
	if err != nil {
		t.Fatalf("gate enter: %v", err)
	}
	if string(out) != "ssh!" {
		t.Errorf("gate result = %q", out)
	}
	// The thread retains the ownership it acquired through the gate (until
	// it re-enters another gate or resets its label), so its next call may
	// read what only the post-entry label observes.
	lblAfter, _ := tc2.SelfLabel()
	if !lblAfter.Owns(c) {
		t.Error("thread should own c after entering the gate")
	}
	if got, err := tc2.SegmentRead(CEnt{root, secret}, 0, 4); err != nil || string(got) != "ssh!" {
		t.Errorf("read after the gate entry = %q, %v; want the secret", got, err)
	}
}

func TestGateEnterRequestedLabelMustCoverTaint(t *testing.T) {
	k, tc := boot(t)
	root := k.RootContainer()
	v, _ := tc.CategoryCreate()

	gateID, err := tc.GateCreate(root, GateSpec{
		Label:     label.New(label.L1),
		Clearance: label.New(label.L2),
		Descrip:   "plain gate",
		Entry:     func(call *GateCallCtx) []byte { return []byte("ok") },
	})
	if err != nil {
		t.Fatal(err)
	}
	// A thread tainted v2 cannot request an untainted label across the gate:
	// (LTᴶ ⊔ LGᴶ)⋆ ⊑ LR fails.
	tid, _ := tc.ThreadCreate(root, ThreadSpec{
		Label:     label.New(label.L1, label.P(v, label.L2)),
		Clearance: label.New(label.L2),
	})
	tc2, _ := k.ThreadCall(tid)
	_, err = tc2.GateEnter(CEnt{root, gateID}, GateRequest{
		Label:     label.New(label.L1), // tries to shed the v2 taint
		Clearance: label.New(label.L2),
		Verify:    label.New(label.L1, label.P(v, label.L2)),
	})
	if !errors.Is(err, ErrLabel) {
		t.Errorf("shedding taint across a gate must fail: err=%v", err)
	}
	if lbl, _ := tc2.SelfLabel(); lbl.Get(v) != label.L2 {
		t.Errorf("a refused gate entry changed the thread's label: %v", lbl)
	}
	// Carrying the taint through is fine.
	out, err := tc2.GateEnter(CEnt{root, gateID}, GateRequest{
		Label:     label.New(label.L1, label.P(v, label.L2)),
		Clearance: label.New(label.L2),
		Verify:    label.New(label.L1, label.P(v, label.L2)),
	})
	if err != nil || string(out) != "ok" {
		t.Errorf("tainted gate call failed: %q, %v", out, err)
	}
}

func TestGateClearanceRestrictsCallers(t *testing.T) {
	k, tc := boot(t)
	root := k.RootContainer()
	x, _ := tc.CategoryCreate()

	// A gate whose clearance is {x0, 2} can only be invoked by threads that
	// own x (any other thread has x at level 1 > 0).  This is exactly how the
	// login grant gate is protected (Section 6.2).
	gateID, err := tc.GateCreate(root, GateSpec{
		Label:     label.New(label.L1),
		Clearance: label.New(label.L2, label.P(x, label.L0)),
		Descrip:   "grant gate",
		Entry:     func(call *GateCallCtx) []byte { return []byte("granted") },
	})
	if err != nil {
		t.Fatal(err)
	}
	tid, _ := tc.ThreadCreate(root, ThreadSpec{Label: label.New(label.L1), Clearance: label.New(label.L2)})
	tc2, _ := k.ThreadCall(tid)
	_, err = tc2.GateEnter(CEnt{root, gateID}, GateRequest{
		Label: label.New(label.L1), Clearance: label.New(label.L2), Verify: label.New(label.L1),
	})
	if !errors.Is(err, ErrClearance) {
		t.Errorf("caller without x ownership must be rejected: err=%v", err)
	}
	// A thread owning x may call.
	tidX, _ := tc.ThreadCreate(root, ThreadSpec{
		Label:     label.New(label.L1, label.P(x, label.Star)),
		Clearance: label.New(label.L2, label.P(x, label.L3)),
	})
	tcX, _ := k.ThreadCall(tidX)
	out, err := tcX.GateEnter(CEnt{root, gateID}, GateRequest{
		Label:     label.New(label.L1, label.P(x, label.Star)),
		Clearance: label.New(label.L2, label.P(x, label.L3)),
		Verify:    label.New(label.L1, label.P(x, label.Star)),
	})
	if err != nil || string(out) != "granted" {
		t.Errorf("owner of x should pass the clearance check: %q, %v", out, err)
	}
}

func TestGateCreateRequiresPrivilege(t *testing.T) {
	k, tc := boot(t)
	root := k.RootContainer()
	c, _ := tc.CategoryCreate()
	// A thread that does not own c cannot mint a gate carrying c ⋆.
	tid, _ := tc.ThreadCreate(root, ThreadSpec{Label: label.New(label.L1), Clearance: label.New(label.L2)})
	tc2, _ := k.ThreadCall(tid)
	_, err := tc2.GateCreate(root, GateSpec{
		Label:     label.New(label.L1, label.P(c, label.Star)),
		Clearance: label.New(label.L2),
		Entry:     func(call *GateCallCtx) []byte { return nil },
	})
	if !errors.Is(err, ErrLabel) {
		t.Errorf("forging privilege in a gate must fail: err=%v", err)
	}
	// The owner can.
	if _, err := tc.GateCreate(root, GateSpec{
		Label:     label.New(label.L1, label.P(c, label.Star)),
		Clearance: label.New(label.L2),
		Entry:     func(call *GateCallCtx) []byte { return nil },
	}); err != nil {
		t.Errorf("owner creating gate: %v", err)
	}
}

func TestGateVerifyLabelMustBeProvable(t *testing.T) {
	k, tc := boot(t)
	root := k.RootContainer()
	c, _ := tc.CategoryCreate()
	gateID, _ := tc.GateCreate(root, GateSpec{
		Label:     label.New(label.L1),
		Clearance: label.New(label.L2),
		Entry: func(call *GateCallCtx) []byte {
			if call.Verify.Owns(c) {
				return []byte("owner")
			}
			return []byte("anon")
		},
	})
	tid, _ := tc.ThreadCreate(root, ThreadSpec{Label: label.New(label.L1), Clearance: label.New(label.L2)})
	tc2, _ := k.ThreadCall(tid)
	// Claiming ownership of c in the verify label without having it fails
	// the LT ⊑ LV check.
	_, err := tc2.GateEnter(CEnt{root, gateID}, GateRequest{
		Label:     label.New(label.L1),
		Clearance: label.New(label.L2),
		Verify:    label.New(label.L1, label.P(c, label.Star)),
	})
	if !errors.Is(err, ErrLabel) {
		t.Errorf("forged verify label must fail: err=%v", err)
	}
	// An honest verify label passes and the entry point sees it.
	out, err := tc2.GateEnter(CEnt{root, gateID}, GateRequest{
		Label:     label.New(label.L1),
		Clearance: label.New(label.L2),
		Verify:    label.New(label.L1),
	})
	if err != nil || string(out) != "anon" {
		t.Errorf("honest verify: %q, %v", out, err)
	}
	// The owner proving ownership is seen by the entry code.
	out, err = tc.GateEnter(CEnt{root, gateID}, GateRequest{
		Label:     label.New(label.L1, label.P(c, label.Star)),
		Clearance: label.New(label.L2, label.P(c, label.L3)),
		Verify:    label.New(label.L1, label.P(c, label.Star)),
	})
	if err != nil || string(out) != "owner" {
		t.Errorf("owner verify: %q, %v", out, err)
	}
}

func TestGateClosureArguments(t *testing.T) {
	k, tc := boot(t)
	root := k.RootContainer()
	gateID, _ := tc.GateCreate(root, GateSpec{
		Label:     label.New(label.L1),
		Clearance: label.New(label.L2),
		Closure:   []byte("retry-count-segment-id"),
		Entry: func(call *GateCallCtx) []byte {
			return append(append([]byte(nil), call.Closure...), call.Args...)
		},
	})
	out, err := tc.GateEnter(CEnt{root, gateID}, GateRequest{
		Label:     label.New(label.L1),
		Clearance: label.New(label.L2),
		Verify:    label.New(label.L1),
		Args:      []byte("+args"),
	})
	if err != nil {
		t.Fatal(err)
	}
	if string(out) != "retry-count-segment-id+args" {
		t.Errorf("closure/args = %q", out)
	}
}

func TestReturnGatePattern(t *testing.T) {
	// The §5.5 convention: a caller creates a return gate carrying its own
	// privileges, invokes a service gate tainted in a fresh category t, and
	// the service (unable to shed the taint itself) invokes the return gate
	// to restore the caller's privileges and untaint the result.
	k, tc := boot(t)
	root := k.RootContainer()

	// The "caller" is the boot thread; it owns nothing special yet.
	callerLbl, _ := tc.SelfLabel()
	callerClr, _ := tc.SelfClearance()

	// Allocate the return category r and the secrecy category tt.
	r, _ := tc.CategoryCreate()
	tt, _ := tc.CategoryCreate()
	callerLblOwned, _ := tc.SelfLabel()

	var restored bool
	returnGate, err := tc.GateCreate(root, GateSpec{
		Label:     callerLblOwned, // carries ownership of r and tt back
		Clearance: label.New(label.L2, label.P(r, label.L0), label.P(tt, label.L3)),
		Descrip:   "return gate",
		Entry: func(call *GateCallCtx) []byte {
			restored = true
			return call.Args
		},
	})
	if err != nil {
		t.Fatal(err)
	}

	// The service gate: runs with no special privilege.
	serviceGate, err := tc.GateCreate(root, GateSpec{
		Label:     label.New(label.L1),
		Clearance: label.New(label.L2, label.P(tt, label.L3)),
		Descrip:   "timestamp service",
		Entry: func(call *GateCallCtx) []byte {
			// Compute a "signature" over the (tainted) input, then return
			// through the return gate, which restores the caller's ownership
			// of tt so the result can be untainted.
			sig := append([]byte("signed:"), call.Args...)
			out, err := call.TC.GateEnter(CEnt{root, returnGate}, GateRequest{
				Label:     callerLblOwned,
				Clearance: callerClr.With(r, label.L3).With(tt, label.L3),
				// The verify label must carry the thread's current taint
				// (LT ⊑ LV) in addition to the ownership it proves.
				Verify: label.New(label.L1, label.P(r, label.Star), label.P(tt, label.L3)),
				Args:   sig,
			})
			if err != nil {
				return []byte("return-gate-failed: " + err.Error())
			}
			return out
		},
	})
	if err != nil {
		t.Fatal(err)
	}

	// Invoke the service tainted tt 3, granting r ⋆ so the return gate's
	// clearance check passes.
	out, err := tc.GateEnter(CEnt{root, serviceGate}, GateRequest{
		Label:     callerLbl.With(tt, label.L3).With(r, label.Star),
		Clearance: callerClr.With(tt, label.L3).With(r, label.L3),
		Verify:    label.New(label.L1, label.P(r, label.Star)),
		Args:      []byte("document"),
	})
	if err != nil {
		t.Fatalf("service gate call: %v", err)
	}
	if string(out) != "signed:document" {
		t.Errorf("result = %q", out)
	}
	if !restored {
		t.Error("return gate never ran")
	}
	finalLbl, _ := tc.SelfLabel()
	if !finalLbl.Owns(tt) || !finalLbl.Owns(r) {
		t.Errorf("caller should end owning r and t again, got %v", finalLbl)
	}
}
