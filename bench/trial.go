package main

import (
	"bytes"
	"fmt"
	"os"
	"runtime"
	"strconv"
	"strings"
	"sync/atomic"
	"time"
)

// trialSpec is what the parent asks one child process to do.
type trialSpec struct {
	Workload string
	Seed     int64
	// N is the workload's scale unit (see each workload for the op counts it
	// expands to); fixed per run, so both sides of a comparison do the same
	// work.
	N      int
	Traced bool
	// TraceOut, when set on a traced trial, receives the spans as JSON lines.
	TraceOut string
	// SetupOnly makes the trial stop after set-up and report only setup_s.
	SetupOnly bool
	// CorruptOp, when > 0, makes client 0 flip one byte of its model before
	// verifying its CorruptOp'th op — the self-test that the checks can fail.
	CorruptOp int
}

// trialResult is what one fresh-boot trial reports back.
type trialResult struct {
	Workload string `json:"workload"`
	Seed     int64  `json:"seed"`
	Traced   bool   `json:"traced"`
	Ops      int    `json:"ops"`
	Failed   int    `json:"failed"`
	// LostAcked counts objects acknowledged durable that did not come back
	// intact, with their label, after the crash (lfs_* only).
	LostAcked  int     `json:"lost_acked_writes"`
	FirstError string  `json:"first_error,omitempty"`
	WallS      float64 `json:"wall_s"`

	E2E   map[string]float64 `json:"end_to_end"`
	Layer map[string]float64 `json:"per_layer,omitempty"`
	// Ladder, SpanSelf and SimByKind are the traced trial's attribution tables.
	Ladder    []ladderRow `json:"ladder,omitempty"`
	SpanSelf  []selfRow   `json:"span_self,omitempty"`
	SimByKind []simRow    `json:"sim_by_kind,omitempty"`
}

// trial is the state one workload run shares with the harness.
type trial struct {
	spec    trialSpec
	clients []*client
	// progress counts completed ops across clients; the child's reporter
	// goroutine relays it to the parent's watchdog.  onWindow, if set, is told
	// the window's planned op count as the window opens.
	progress atomic.Int64
	onWindow func(planned int64)

	rig       *rig
	setupS    float64
	before    counters
	after     counters
	start     time.Time
	wall      time.Duration
	userBytes uint64

	lostAcked int
	// post holds per-layer metrics measured after the window (recovery).
	post map[string]float64
}

// newTrial prepares the state of nClients clients.
func newTrial(spec trialSpec, nClients int) *trial {
	t := &trial{spec: spec, post: map[string]float64{}}
	for g := 0; g < nClients; g++ {
		t.clients = append(t.clients, &client{t: t})
	}
	t.clients[0].corruptOp = spec.CorruptOp
	return t
}

// beginWindow marks the end of set-up: counters are snapshotted and the
// clock starts.  planned is the exact number of ops the window will issue.
// Tracers are created here, so span times count from just before the window.
func (t *trial) beginWindow(planned int) {
	r := t.rig
	if t.onWindow != nil {
		t.onWindow(int64(planned))
	}
	opsPerClient := planned/len(t.clients) + 1
	for _, c := range t.clients {
		c.lats = make([]time.Duration, 0, opsPerClient)
		if t.spec.Traced {
			c.tr = newTracer(time.Now(), r.diskClock, 4*opsPerClient)
		}
	}
	t.before = r.snapshot()
	t.start = time.Now()
}

// endWindow stops the clock and snapshots the counters again.
func (t *trial) endWindow() {
	t.wall = time.Since(t.start)
	for _, c := range t.clients {
		t.wall -= c.excluded
	}
	t.after = t.rig.snapshot()
}

// client is one closed-loop caller: it issues an op, waits for the reply,
// verifies it, and only then issues the next.
type client struct {
	t        *trial
	tr       *tracer
	lats     []time.Duration
	failed   int
	firstErr string
	// excluded is untimed housekeeping between ops (cache eviction, directory
	// listings for the post-crash check) taken out of the window.
	excluded time.Duration

	corruptOp int
}

// op runs one operation: fn issues the calls and verifies the outputs, and a
// non-nil error counts the op as failed.
func (c *client) op(fn func() error) {
	c.tr.nextOp()
	s := c.tr.begin("op")
	t0 := time.Now()
	err := fn()
	c.lats = append(c.lats, time.Since(t0))
	c.tr.end(s)
	if err != nil {
		c.failed++
		if c.firstErr == "" {
			c.firstErr = fmt.Sprintf("op %d: %v", len(c.lats)-1, err)
		}
	}
	c.t.progress.Add(1)
}

// call wraps one call into a layer in a span named after it.
func (c *client) call(name string, fn func() error) error {
	s := c.tr.begin(name)
	err := fn()
	c.tr.end(s)
	return err
}

// untimed runs housekeeping that is not part of the workload's load.
func (c *client) untimed(fn func()) {
	t0 := time.Now()
	fn()
	c.excluded += time.Since(t0)
}

// expect returns the bytes the model says the system must produce.  Every
// check goes through it, so the self-test can make the model wrong by one
// byte and see the op counted as failed.
func (c *client) expect(want []byte) []byte {
	if c.corruptOp != len(c.lats)+1 || len(want) == 0 {
		return want
	}
	bad := append([]byte(nil), want...)
	bad[len(bad)/2] ^= 0x01
	return bad
}

// check compares what the system produced with the model.
func (c *client) check(what string, got, want []byte) error {
	if want = c.expect(want); !bytes.Equal(got, want) {
		return fmt.Errorf("%s: got %q, want %q", what, clip(got), clip(want))
	}
	return nil
}

func clip(b []byte) []byte {
	if len(b) > 48 {
		return b[:48]
	}
	return b
}

// result assembles the trial's report once the workload is done.
func (t *trial) result() *trialResult {
	res := &trialResult{
		Workload:  t.spec.Workload,
		Seed:      t.spec.Seed,
		Traced:    t.spec.Traced,
		LostAcked: t.lostAcked,
		WallS:     t.wall.Seconds(),
	}
	var lats []time.Duration
	for _, c := range t.clients {
		lats = append(lats, c.lats...)
		res.Failed += c.failed
		if res.FirstError == "" {
			res.FirstError = c.firstErr
		}
	}
	res.Ops = len(lats)
	us := micros(lats)

	// At most one of the two device clocks exists; the other delta is zero.
	simS := (t.after.diskSim - t.before.diskSim + t.after.netSim - t.before.netSim).Seconds()
	res.E2E = map[string]float64{
		"ops_per_s":         float64(res.Ops-res.Failed) / t.wall.Seconds(),
		"p50_us":            percentile(us, 0.50),
		"modeled_us_per_op": (t.wall.Seconds() + simS) / float64(res.Ops) * 1e6,
		"setup_s":           t.setupS,
		"peak_rss_mb":       peakRSSMB(),
	}

	res.Layer = counterMetrics(t.rig, t.before, t.after, res.Ops, t.userBytes)
	res.Layer["tail.p99_us"] = percentile(us, 0.99)
	res.Layer["tail.samples_beyond_p99"] = float64(len(us) / 100)
	res.Layer["lfs.lost_acked_writes"] = float64(t.lostAcked)
	for k, v := range t.post {
		res.Layer[k] = v
	}
	return res
}

// peakRSSMB reads this process's resident-set high-water mark.
func peakRSSMB() float64 {
	data, err := os.ReadFile("/proc/self/status")
	if err != nil {
		return 0
	}
	for _, line := range strings.Split(string(data), "\n") {
		if rest, ok := strings.CutPrefix(line, "VmHWM:"); ok {
			kb, err := strconv.ParseFloat(strings.TrimSpace(strings.TrimSuffix(strings.TrimSpace(rest), "kB")), 64)
			if err != nil {
				return 0
			}
			return kb / 1024
		}
	}
	return 0
}

// benchProcs is the GOMAXPROCS every trial runs at: min(nproc, 4).
func benchProcs() int {
	if n := runtime.NumCPU(); n < 4 {
		return n
	}
	return 4
}
