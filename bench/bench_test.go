package main

import (
	"bytes"
	"encoding/json"
	"os"
	"os/exec"
	"reflect"
	"strings"
	"testing"
	"time"
)

func TestPercentile(t *testing.T) {
	xs := make([]float64, 100)
	for i := range xs {
		xs[i] = float64(i + 1)
	}
	for _, tc := range []struct{ p, want float64 }{{0.50, 50}, {0.99, 99}, {1, 100}, {0, 1}, {0.001, 1}} {
		if got := percentile(xs, tc.p); got != tc.want {
			t.Errorf("percentile(1..100, %g) = %g, want %g", tc.p, got, tc.want)
		}
	}
	if got := percentile([]float64{7}, 0.99); got != 7 {
		t.Errorf("single sample: got %g", got)
	}
	if got := percentile(nil, 0.5); got != 0 {
		t.Errorf("no samples: got %g", got)
	}
}

func TestMedianOfTrials(t *testing.T) {
	for _, tc := range []struct {
		xs   []float64
		want float64
	}{
		{[]float64{3, 1, 2}, 2},
		{[]float64{4, 1, 3, 2}, 2.5},
		{[]float64{9}, 9},
		{nil, 0},
	} {
		if got := median(tc.xs); got != tc.want {
			t.Errorf("median(%v) = %g, want %g", tc.xs, got, tc.want)
		}
	}
	xs := []float64{3, 1, 2}
	median(xs)
	if !reflect.DeepEqual(xs, []float64{3, 1, 2}) {
		t.Errorf("median reordered its argument: %v", xs)
	}
	if lo, hi := minMax([]float64{3, 1, 2}); lo != 1 || hi != 3 {
		t.Errorf("minMax = %g, %g", lo, hi)
	}
}

// A span's self time is its duration minus what its direct children cover;
// netsim's own time is netsim.send minus the webd.serve inside it.
func TestSpanSelfTime(t *testing.T) {
	tr := newTracer(time.Now(), nil, 8)
	add := func(name string, start, end int64, parent int32) {
		tr.spans = append(tr.spans, span{Name: internName(name), Start: start, End: end, Parent: parent})
	}
	add("op", 0, 100_000, -1)
	add("netsim.send", 10_000, 90_000, 0)
	add("webd.serve", 20_000, 70_000, 1)
	add("op", 100_000, 130_000, -1)
	add("netsim.send", 105_000, 125_000, 3)
	add("webd.serve", 110_000, 120_000, 4)

	sum := summarize([]*tracer{tr, nil})
	for name, want := range map[string]spanSummary{
		"op":          {Count: 2, SelfUs: 20 + 10},
		"netsim.send": {Count: 2, SelfUs: 30 + 10},
		"webd.serve":  {Count: 2, SelfUs: 50 + 10},
	} {
		got := sum[name]
		if got == nil || got.Count != want.Count || got.SelfUs != want.SelfUs {
			t.Errorf("%s: got %+v, want count %d self %g us", name, got, want.Count, want.SelfUs)
		}
	}
	if got := sum["netsim.send"].Durs; !reflect.DeepEqual(got, []float64{80, 20}) {
		t.Errorf("netsim.send durations %v, want [80 20] in record order", got)
	}
}

func TestTracerNesting(t *testing.T) {
	var off *tracer
	off.nextOp()
	off.end(off.begin("op")) // a nil tracer records nothing and does not panic

	tr := newTracer(time.Now(), nil, 4)
	tr.nextOp()
	op := tr.begin("op")
	call := tr.begin("unixlib.create")
	tr.end(call)
	tr.end(op)
	if len(tr.spans) != 2 || tr.spans[1].Parent != op || tr.spans[0].Parent != -1 || tr.spans[1].Op != 0 {
		t.Fatalf("spans %+v", tr.spans)
	}
	path := t.TempDir() + "/spans.jsonl"
	if err := writeSpans(path, []*tracer{tr}); err != nil {
		t.Fatal(err)
	}
	data, _ := os.ReadFile(path)
	lines := strings.Split(strings.TrimSpace(string(data)), "\n")
	if len(lines) != 2 {
		t.Fatalf("wrote %d lines, want 2", len(lines))
	}
	var rec struct {
		ID, Parent, Op int64
		Name           string
		Start, End     int64
	}
	if err := json.Unmarshal([]byte(lines[1]), &rec); err != nil {
		t.Fatal(err)
	}
	if rec.Name != "unixlib.create" || rec.Parent != 0 || rec.ID != 1 || rec.End < rec.Start {
		t.Errorf("second span written as %+v", rec)
	}
}

func findMetric(defs []metricDef, name string) (metricDef, bool) {
	for _, d := range defs {
		if d.Name == name {
			return d, true
		}
	}
	return metricDef{}, false
}

func e2e(median, lo, hi float64) e2eValue { return e2eValue{Median: median, Min: lo, Max: hi} }

func TestCompareVerdicts(t *testing.T) {
	higher := metricDef{Name: "ops_per_s", Better: "higher", Bound: 0.10}
	lower := metricDef{Name: "p50_us", Better: "lower", Bound: 0.10}
	for _, tc := range []struct {
		name string
		def  metricDef
		a, b e2eValue
		want string
	}{
		{"throughput fell past the bound", higher, e2e(100, 98, 102), e2e(85, 84, 86), verdictRegressed},
		{"past the bound even with overlapping ranges", higher, e2e(100, 80, 120), e2e(85, 84, 110), verdictRegressed},
		{"ranges overlap", higher, e2e(100, 95, 105), e2e(97, 94, 101), verdictUnresolved},
		{"apart, worse, inside the bound", higher, e2e(100, 99, 101), e2e(95, 94, 96), verdictWorse},
		{"apart and better", higher, e2e(100, 99, 101), e2e(110, 108, 112), verdictBetter},
		{"latency rose past the bound", lower, e2e(100, 98, 102), e2e(115, 113, 117), verdictRegressed},
		{"latency fell", lower, e2e(100, 98, 102), e2e(90, 89, 91), verdictBetter},
		{"identical", lower, e2e(100, 100, 100), e2e(100, 100, 100), verdictUnresolved},
	} {
		if got := compareMetric(tc.def, tc.a, tc.b); got != tc.want {
			t.Errorf("%s: %q, want %q", tc.name, got, tc.want)
		}
	}
}

func TestCompareReports(t *testing.T) {
	build := func(ops float64, failedFrac float64, lost int) *runReport {
		w := &workloadReport{Name: "lfs_sync", FailedFrac: failedFrac, LostAcked: lost, E2E: map[string]e2eValue{}}
		for _, def := range endToEnd {
			w.E2E[def.Name] = e2e(100, 99, 101)
		}
		w.E2E["ops_per_s"] = e2e(ops, ops-1, ops+1)
		return &runReport{Workloads: []*workloadReport{w}}
	}
	base := build(1000, 0, 0)
	for _, tc := range []struct {
		name   string
		b      *runReport
		reject bool
	}{
		{"same", build(1000, 0, 0), false},
		{"faster", build(1500, 0, 0), false},
		{"slower inside the bound", build(950, 0, 0), false},
		{"slower past the bound", build(700, 0, 0), true},
		{"failures rose", build(1000, 0.001, 0), true},
		{"lost an acknowledged write", build(1000, 0, 1), true},
		{"workload missing", &runReport{}, true},
	} {
		var out bytes.Buffer
		if got := compareReports(&out, base, tc.b); got != tc.reject {
			t.Errorf("%s: reject = %v, want %v\n%s", tc.name, got, tc.reject, out.String())
		}
	}
	var out bytes.Buffer
	compareReports(&out, base, build(700, 0, 0))
	for _, want := range []string{"lfs_sync", "ops_per_s", "B/A 0.7000 (A = 1000.0000)  bound 25%  " + verdictRegressed} {
		if !strings.Contains(out.String(), want) {
			t.Errorf("output lacks %q:\n%s", want, out.String())
		}
	}
}

// BENCHMARK.json at the repo root repeats the tables in metrics.go and
// workloads.go for the driver; they must not drift apart.
func TestBenchmarkJSONMatchesTables(t *testing.T) {
	data, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var doc struct {
		Command    []string `json:"command"`
		Paths      []string `json:"paths"`
		RunSeconds int      `json:"run_seconds"`
		Workloads  []struct{ Name, Why string }
		EndToEnd   []struct {
			Name, Unit, Better string
			Bound              float64
		} `json:"end_to_end"`
		PerLayer []struct{ Name, Unit, Better string } `json:"per_layer"`
	}
	dec := json.NewDecoder(bytes.NewReader(data))
	dec.DisallowUnknownFields()
	if err := dec.Decode(&doc); err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(doc.Command, []string{"go", "run", "./bench"}) || !reflect.DeepEqual(doc.Paths, []string{"bench"}) {
		t.Errorf("command %v paths %v", doc.Command, doc.Paths)
	}
	if doc.RunSeconds != defaultSeconds {
		t.Errorf("run_seconds %d, the -seconds default is %d", doc.RunSeconds, defaultSeconds)
	}
	if len(doc.Workloads) != len(workloads) {
		t.Fatalf("%d workloads, the table has %d", len(doc.Workloads), len(workloads))
	}
	for i, w := range workloads {
		if doc.Workloads[i].Name != w.Name || doc.Workloads[i].Why != w.Why {
			t.Errorf("workload %d: %+v, table has %q: %q", i, doc.Workloads[i], w.Name, w.Why)
		}
		if len(w.Why) > 200 {
			t.Errorf("%s: why is %d characters, the limit is 200", w.Name, len(w.Why))
		}
	}
	if len(doc.EndToEnd) != len(endToEnd) {
		t.Fatalf("%d end-to-end metrics, the table has %d", len(doc.EndToEnd), len(endToEnd))
	}
	for i, d := range endToEnd {
		got := doc.EndToEnd[i]
		if got.Name != d.Name || got.Unit != d.Unit || got.Better != d.Better || got.Bound != d.Bound {
			t.Errorf("end_to_end %d: %+v, table has %+v", i, got, d)
		}
	}
	if len(doc.PerLayer) != len(perLayer) {
		t.Fatalf("%d per-layer metrics, the table has %d", len(doc.PerLayer), len(perLayer))
	}
	for i, d := range perLayer {
		got := doc.PerLayer[i]
		if got.Name != d.Name || got.Unit != d.Unit || got.Better != d.Better {
			t.Errorf("per_layer %d: %+v, table has %+v", i, got, d)
		}
	}
	for _, m := range spanMetrics {
		if _, ok := findMetric(perLayer, m.metric); !ok {
			t.Errorf("span metric %s is not in the per-layer table", m.metric)
		}
	}
}

// smokeN is each workload's N at 1/50 of a full run.
func smokeN(t *testing.T, name string) int {
	t.Helper()
	w := findWorkload(name)
	if w == nil {
		t.Fatalf("no workload %q", name)
	}
	return w.scale(defaultSeconds) / 50
}

// Every workload, traced, at 1/50 scale: no op may fail, no acknowledged
// write may be lost, and every per-layer metric the tables promise is there.
func TestSmoke(t *testing.T) {
	for _, w := range workloads {
		t.Run(w.Name, func(t *testing.T) {
			spec := trialSpec{Workload: w.Name, Seed: 7, N: smokeN(t, w.Name), Traced: true,
				TraceOut: t.TempDir() + "/spans.jsonl"}
			res, err := runTrial(spec, nil)
			if err != nil {
				t.Fatal(err)
			}
			if res.Ops == 0 || res.Failed != 0 || res.LostAcked != 0 {
				t.Fatalf("ops %d failed %d lost %d: %s", res.Ops, res.Failed, res.LostAcked, res.FirstError)
			}
			for _, def := range endToEnd {
				if v, ok := res.E2E[def.Name]; !ok || v <= 0 {
					t.Errorf("end-to-end %s = %g (present %v); it must never be 0", def.Name, v, ok)
				}
			}
			for name := range res.Layer {
				if _, ok := findMetric(perLayer, name); !ok {
					t.Errorf("reported %s, which the per-layer table does not name", name)
				}
			}
			for _, name := range []string{"label.leq_ns", "kernel.syscall_ns", "kernel.ring_entry_ns", "kernel.gate_enter_ns", "kernel.syscalls_per_op"} {
				if res.Layer[name] <= 0 {
					t.Errorf("%s = %g", name, res.Layer[name])
				}
			}
			if len(res.Ladder) == 0 {
				t.Error("no ladder")
			}
			if st, err := os.Stat(spec.TraceOut); err != nil || st.Size() == 0 {
				t.Errorf("span file: %v", err)
			}
			var out bytes.Buffer
			printLadder(&out, res)
			if !strings.Contains(out.String(), "unexplained vs p50") {
				t.Errorf("ladder output:\n%s", out.String())
			}
		})
	}
}

// The self-test of the checks: with one byte of the model wrong, the op that
// meets it must count as failed.
func TestWrongModelByteFails(t *testing.T) {
	for name, at := range map[string]func(n int) int{
		"web_warm":   func(n int) int { return 3 },
		"unix_build": func(n int) int { return 3 },
		// The first op that reads a file back: after n creates and n
		// overwrites on lfs_sync, after the creates and their group syncs on
		// lfs_ckpt.
		"lfs_sync": func(n int) int { return 2*n + 1 },
		"lfs_ckpt": func(n int) int { return n + n/500 + 1 + 1 },
	} {
		t.Run(name, func(t *testing.T) {
			n := smokeN(t, name)
			res, err := runTrial(trialSpec{Workload: name, Seed: 7, N: n, CorruptOp: at(n) + 1}, nil)
			if err != nil {
				t.Fatal(err)
			}
			if res.Failed != 1 {
				t.Fatalf("failed = %d, want exactly the corrupted op (%s)", res.Failed, res.FirstError)
			}
		})
	}
}

// Single-client, timer-free numbers must repeat exactly for a given seed.
func TestSameSeedSameCounts(t *testing.T) {
	exact := []string{
		"lfs.sim_disk_ms_per_kop", "lfs.dev_bytes_per_user_byte", "lfs.space_per_live_byte", "lfs.recover_sim_ms",
		"kernel.syscalls_per_op", "kernel.objects_live_end", "kernel.ring_entries_per_wait",
		"disk.flushes_per_op", "disk.seeks_per_op", "disk.writes_per_op", "disk.bytes_read",
		"wal.commits_per_sync", "wal.bytes_per_user_byte", "wal.records_replayed",
		"store.checkpoints", "store.bytes_home", "store.bytes_cleaned", "store.meta_bytes_written", "store.live_objects_end",
	}
	for _, name := range []string{"lfs_sync", "lfs_ckpt", "unix_build"} {
		t.Run(name, func(t *testing.T) {
			spec := trialSpec{Workload: name, Seed: 11, N: smokeN(t, name)}
			a, err := runTrial(spec, nil)
			if err != nil {
				t.Fatal(err)
			}
			b, err := runTrial(spec, nil)
			if err != nil {
				t.Fatal(err)
			}
			if a.Ops != b.Ops {
				t.Errorf("ops %d and %d", a.Ops, b.Ops)
			}
			for _, k := range exact {
				if a.Layer[k] != b.Layer[k] {
					t.Errorf("%s: %v and %v", k, a.Layer[k], b.Layer[k])
				}
			}
			spec.Seed = 12
			c, err := runTrial(spec, nil)
			if err != nil {
				t.Fatal(err)
			}
			if c.Failed != 0 || c.LostAcked != 0 {
				t.Errorf("seed 12: failed %d lost %d: %s", c.Failed, c.LostAcked, c.FirstError)
			}
		})
	}
}

// TestHelperHang is not a test: run with BENCH_TEST_HANG set, it stands in for
// a trial that lost a wake-up.
func TestHelperHang(t *testing.T) {
	if os.Getenv("BENCH_TEST_HANG") == "" {
		t.Skip("helper for TestWatchdog")
	}
	n := int64(5)
	_ = json.NewEncoder(os.Stdout).Encode(childMsg{Planned: &n})
	n = 2
	_ = json.NewEncoder(os.Stdout).Encode(childMsg{Progress: &n})
	time.Sleep(time.Hour) // a sleep, because the runtime itself reports a select{} as a deadlock
}

// A child that outlives its limit is stopped with SIGQUIT, its goroutine dump
// is kept, and what it had not finished can be counted as failed.
func TestWatchdog(t *testing.T) {
	cmd := exec.Command(os.Args[0], "-test.run=^TestHelperHang$")
	cmd.Env = append(os.Environ(), "BENCH_TEST_HANG=1")
	start := time.Now()
	out, err := watchChild(cmd, 300*time.Millisecond)
	if err != nil {
		t.Fatal(err)
	}
	if out.res != nil || out.planned != 5 || out.progress != 2 {
		t.Errorf("outcome %+v", out)
	}
	if !strings.Contains(out.dump, "goroutine") || !strings.Contains(out.dump, "TestHelperHang") {
		t.Errorf("dump does not show the hung goroutine:\n%s", out.dump)
	}
	if time.Since(start) > 8*time.Second {
		t.Errorf("took %v to stop a hung child", time.Since(start))
	}
}
