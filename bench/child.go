package main

import (
	"encoding/json"
	"fmt"
	"io"
	"runtime"
	"sync"
	"time"
)

// spanMetrics maps a span name to the per-layer metric that reports the
// median duration of its spans, and the unit divisor (µs → the metric's unit).
var spanMetrics = map[string]struct {
	metric string
	div    float64
}{
	"webd.serve":                 {"webd.serve_warm_us", 1},
	"webd.serve.cold":            {"webd.serve_cold_us", 1},
	"unixlib.create":             {"unixlib.create_us", 1},
	"unixlib.fsync":              {"unixlib.fsync_us", 1},
	"unixlib.overwrite":          {"unixlib.overwrite_us", 1},
	"unixlib.read_cached":        {"unixlib.read_cached_us", 1},
	"unixlib.read_uncached":      {"unixlib.read_uncached_us", 1},
	"unixlib.pwritev_fsync":      {"unixlib.pwritev_fsync_us", 1},
	"unixlib.bigfile_sync_write": {"unixlib.bigfile_sync_write_us", 1},
	"unixlib.seq_append":         {"unixlib.seq_append_us", 1},
	"unixlib.unlink":             {"unixlib.unlink_us", 1},
	"unixlib.unlink_sync":        {"unixlib.unlink_sync_us", 1},
	"unixlib.groupsync":          {"unixlib.groupsync_ms", 1000},
	"unixlib.spawn":              {"unixlib.spawn_us", 1},
	"unixlib.forkexec":           {"unixlib.forkexec_us", 1},
	"unixlib.wait":               {"unixlib.wait_us", 1},
}

// runTrial boots a fresh system, runs one trial of the workload on it, and on
// a traced trial adds the span-derived metrics, the probes and the ladder.
// onStart, if set, receives the trial before set-up begins.
func runTrial(spec trialSpec, onStart func(*trial)) (*trialResult, error) {
	w := findWorkload(spec.Workload)
	if w == nil {
		return nil, fmt.Errorf("unknown workload %q", spec.Workload)
	}
	t := newTrial(spec, w.clients())
	if onStart != nil {
		onStart(t)
	}
	t0 := time.Now()
	run, err := w.Setup(t)
	t.setupS = time.Since(t0).Seconds()
	if t.rig != nil {
		defer t.rig.close()
	}
	if err == nil && !spec.SetupOnly {
		err = run()
	}
	if err != nil {
		return nil, fmt.Errorf("%s: %w", w.Name, err)
	}
	if spec.SetupOnly {
		return &trialResult{Workload: spec.Workload, Seed: spec.Seed, E2E: map[string]float64{"setup_s": t.setupS}}, nil
	}
	res := t.result()
	if !spec.Traced {
		return res, nil
	}

	tracers := make([]*tracer, len(t.clients))
	for i, c := range t.clients {
		tracers[i] = c.tr
	}
	spans := summarize(tracers)
	for name, m := range spanMetrics {
		if s := spans[name]; s != nil {
			res.Layer[m.metric] = median(s.Durs) / m.div
		}
	}
	// The cost of spawn i as a function of i: the growth is the metric.
	if s := spans["unixlib.spawn"]; s != nil && len(s.Durs) >= 10 {
		k := len(s.Durs) / 10
		res.Layer["unixlib.spawn_us_first_decile"] = median(s.Durs[:k])
		res.Layer["unixlib.spawn_us_last_decile"] = median(s.Durs[len(s.Durs)-k:])
	}
	res.SimByKind = simByKind(spans)
	res.SpanSelf = selfByName(spans, res.Ops)

	probes, err := runProbes(t.rig, tracers[0])
	if err != nil {
		return nil, fmt.Errorf("%s: %w", w.Name, err)
	}
	for k, v := range probes {
		res.Layer[k] = v
	}
	res.Ladder = buildLadder(t.before, t.after, res.Ops, probes)
	if spec.TraceOut != "" {
		if err := writeSpans(spec.TraceOut, tracers); err != nil {
			return nil, err
		}
	}
	return res, nil
}

// childMsg is one line of the child's stdout: the window's planned op count,
// progress while the trial runs, then the result.
type childMsg struct {
	Planned  *int64       `json:"planned,omitempty"`
	Progress *int64       `json:"progress,omitempty"`
	Result   *trialResult `json:"result,omitempty"`
}

// childMain runs one trial in this process and reports on stdout.  The parent
// re-executes the benchmark binary once per trial, so no two trials share a
// heap or a garbage collector.
func childMain(spec trialSpec, out io.Writer) error {
	runtime.GOMAXPROCS(benchProcs())
	enc := json.NewEncoder(out)
	var mu sync.Mutex
	send := func(m childMsg) {
		mu.Lock()
		defer mu.Unlock()
		_ = enc.Encode(m) // a parent that went away needs no report
	}

	stop := make(chan struct{})
	var reporter sync.WaitGroup
	res, err := runTrial(spec, func(t *trial) {
		t.onWindow = func(planned int64) { send(childMsg{Planned: &planned}) }
		reporter.Add(1)
		go func() {
			defer reporter.Done()
			tick := time.NewTicker(200 * time.Millisecond)
			defer tick.Stop()
			for {
				select {
				case <-stop:
					return
				case <-tick.C:
					n := t.progress.Load()
					send(childMsg{Progress: &n})
				}
			}
		}()
	})
	close(stop)
	reporter.Wait()
	if err != nil {
		return err
	}
	send(childMsg{Result: res})
	return nil
}
