package main

import (
	"fmt"
	"time"

	"histar/internal/kernel"
	"histar/internal/label"
	"histar/internal/netsim"
	"histar/internal/vclock"
)

// Probes run after the measured window, on the same live system: a fixed
// number of calls of one primitive per layer, reported as the median cost of
// a call.  They give the ladder its unit costs and never run on an untraced
// trial.

const (
	probeCalls     = 10000 // nanosecond-scale primitives
	probeBatch     = 100   // calls timed together, so the timer is not what is measured
	probeSlowCalls = 200   // microsecond-scale primitives, timed one by one
	probeCkptCalls = 10
)

// prober times primitives and records one probe.<metric> span per timed call
// (per timed batch for the nanosecond-scale ones).
type prober struct {
	tr  *tracer
	out map[string]float64
}

// fast reports the median nanoseconds of fn, timing probeBatch calls at a time.
func (p *prober) fast(metric string, fn func() error) error {
	samples := make([]float64, 0, probeCalls/probeBatch)
	for b := 0; b < probeCalls/probeBatch; b++ {
		s := p.tr.begin("probe." + metric)
		t0 := time.Now()
		for i := 0; i < probeBatch; i++ {
			if err := fn(); err != nil {
				p.tr.end(s)
				return fmt.Errorf("probe %s: %w", metric, err)
			}
		}
		d := time.Since(t0)
		p.tr.end(s)
		samples = append(samples, float64(d)/probeBatch)
	}
	p.out[metric] = median(samples)
	return nil
}

// slow reports the median of n single timed calls of fn, in units of per.
func (p *prober) slow(metric string, n int, per time.Duration, fn func(i int) error) error {
	samples := make([]float64, 0, n)
	for i := 0; i < n; i++ {
		s := p.tr.begin("probe." + metric)
		t0 := time.Now()
		err := fn(i)
		d := time.Since(t0)
		p.tr.end(s)
		if err != nil {
			return fmt.Errorf("probe %s: %w", metric, err)
		}
		samples = append(samples, float64(d)/float64(per))
	}
	p.out[metric] = median(samples)
	return nil
}

// runProbes measures every primitive the rig has.  A layer the workload does
// not use is not probed and reports 0.
func runProbes(r *rig, tr *tracer) (map[string]float64, error) {
	p := &prober{tr: tr, out: map[string]float64{}}
	sys := r.sys
	proc := r.proc
	if proc == nil {
		var err error
		if proc, err = sys.NewInitProcess(""); err != nil {
			return nil, err
		}
	}
	tc := proc.TC

	// label: one ⊑ on the largest thread label the workload grew, against a
	// user's file label — the comparison behind every cache miss.
	thr, err := tc.SelfLabel()
	if err != nil {
		return nil, err
	}
	if initLbl, err := sys.InitThread().SelfLabel(); err == nil && initLbl.NumExplicit() > thr.NumExplicit() {
		thr = initLbl
	}
	raised := thr.RaiseJ()
	obj := proc.DefaultFileLabel()
	var sink bool
	if err := p.fast("label.leq_ns", func() error { sink = obj.Leq(raised) != sink; return nil }); err != nil {
		return nil, err
	}

	// kernel: the same 8-byte read as a direct syscall and as a ring entry
	// (16-entry batch ÷ 16), and an entry into a gate that does nothing.
	sid, err := tc.SegmentCreate(proc.ProcCt, label.New(label.L1), "probe scratch", kernel.PageSize)
	if err != nil {
		return nil, err
	}
	scratch := kernel.CEnt{Container: proc.ProcCt, Object: sid}
	if err := p.fast("kernel.syscall_ns", func() error {
		_, err := tc.SegmentRead(scratch, 0, 8)
		return err
	}); err != nil {
		return nil, err
	}
	ring := tc.NewRing()
	const ringBatch = 16
	if err := p.fast("kernel.ring_entry_ns", func() error {
		for i := 0; i < ringBatch; i++ {
			ring.Submit(kernel.RingEntry{Op: kernel.OpSegmentRead, Seg: scratch, Len: 8})
		}
		_, err := ring.Wait(0)
		return err
	}); err != nil {
		return nil, err
	}
	p.out["kernel.ring_entry_ns"] /= ringBatch

	self, err := tc.SelfLabel()
	if err != nil {
		return nil, err
	}
	clr, err := tc.SelfClearance()
	if err != nil {
		return nil, err
	}
	gid, err := tc.GateCreate(proc.ProcCt, kernel.GateSpec{
		Label: self, Clearance: clr, Descrip: "probe no-op gate",
		Entry: func(*kernel.GateCallCtx) []byte { return nil },
	})
	if err != nil {
		return nil, err
	}
	gate := kernel.CEnt{Container: proc.ProcCt, Object: gid}
	req := kernel.GateRequest{Label: self, Clearance: clr, Verify: self}
	if err := p.fast("kernel.gate_enter_ns", func() error {
		_, err := tc.GateEnter(gate, req)
		return err
	}); err != nil {
		return nil, err
	}

	// kernel.clone_us and auth.login_us: what a web cold login is made of.
	if r.golden != nil {
		init, root := sys.InitThread(), sys.Kern.RootContainer()
		u, _ := sys.LookupUser("u0")
		dst, err := init.ContainerCreate(root, label.New(label.L1), "probe clones", 0, kernel.QuotaInfinite)
		if err != nil {
			return nil, err
		}
		if err := p.slow("kernel.clone_us", probeSlowCalls, time.Microsecond, func(int) error {
			_, err := sys.SpawnFromGolden(init, r.golden, dst, u)
			return err
		}); err != nil {
			return nil, err
		}
		_ = init.Unref(root, dst)
	}
	if r.auth != nil {
		name, pw := webUser(0)
		if err := p.slow("auth.login_us", probeSlowCalls, time.Microsecond, func(int) error {
			client, err := sys.NewInitProcess("")
			if err != nil {
				return err
			}
			defer client.ExitQuietly()
			return r.auth.Login(client, name, pw)
		}); err != nil {
			return nil, err
		}
	}

	// netsim: one frame each way through an echo endpoint.
	if r.link != nil {
		link := netsim.NewLink(netsim.PaperEthernet(), &vclock.Clock{})
		link.Attach(netsim.EndpointFunc(func([]byte) {}), netsim.EndpointFunc(func(f []byte) { link.SendBtoA(f) }))
		frame := make([]byte, 64)
		if err := p.fast("netsim.roundtrip_ns", func() error { link.SendAtoB(frame); return nil }); err != nil {
			return nil, err
		}
	}

	if r.st != nil {
		if err := probeStore(p, r); err != nil {
			return nil, err
		}
	}
	return p.out, nil
}

// probeStore measures the (reopened) store directly: a 1 KiB Put+SyncObject,
// a Get that has to come from the device, and a checkpoint with one dirty
// object, under object IDs of its own (bit 62 set, counting up).
func probeStore(p *prober, r *rig) error {
	st := r.st
	const base = uint64(1) << 62
	payload := make([]byte, 1024)
	if err := p.slow("store.put_sync_us", probeSlowCalls, time.Microsecond, func(i int) error {
		if err := st.Put(base+uint64(i), payload); err != nil {
			return err
		}
		return st.SyncObject(base + uint64(i))
	}); err != nil {
		return err
	}
	if err := st.Checkpoint(); err != nil {
		return err
	}
	st.EvictCache()
	if err := p.slow("store.get_uncached_us", probeSlowCalls, time.Microsecond, func(i int) error {
		_, err := st.Get(base + uint64(i))
		return err
	}); err != nil {
		return err
	}
	return p.slow("store.checkpoint_ms", probeCkptCalls, time.Millisecond, func(i int) error {
		if err := st.Put(base+uint64(i), payload); err != nil {
			return err
		}
		return st.Checkpoint()
	})
}
