package main

import (
	"bufio"
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"os"
	"os/exec"
	"path/filepath"
	"runtime"
	"strconv"
	"strings"
	"sync/atomic"
	"syscall"
	"time"
)

// e2eValue is one end-to-end metric of one workload: the median over the
// untraced trials, with the range beside it.
type e2eValue struct {
	Median float64   `json:"median"`
	Min    float64   `json:"min"`
	Max    float64   `json:"max"`
	Unit   string    `json:"unit"`
	Trials []float64 `json:"trials"`
}

// workloadReport is everything one run learned about one workload.
type workloadReport struct {
	Name    string `json:"name"`
	Why     string `json:"why"`
	N       int    `json:"n"`
	Clients int    `json:"clients"`

	Attempted int `json:"attempted"`
	Failed    int `json:"failed"`
	// FailedFrac is ops that errored, hung or returned wrong bytes ÷ ops
	// attempted, over the untraced and traced trials alike.
	FailedFrac float64 `json:"failed_frac"`
	LostAcked  int     `json:"lost_acked_writes"`
	FirstError string  `json:"first_error,omitempty"`
	// Hung holds the goroutine dump of every trial the watchdog stopped.
	Hung []string `json:"hung,omitempty"`

	E2E       map[string]e2eValue `json:"end_to_end"`
	Layer     map[string]float64  `json:"per_layer,omitempty"`
	Ladder    []ladderRow         `json:"ladder,omitempty"`
	SpanSelf  []selfRow           `json:"span_self,omitempty"`
	SimByKind []simRow            `json:"sim_by_kind,omitempty"`
}

func (r *workloadReport) correct() bool { return r.Failed == 0 && r.LostAcked == 0 }

// runReport is the file -out writes and -compare reads.
type runReport struct {
	Host      hostInfo          `json:"host"`
	Seed      int64             `json:"seed"`
	Seconds   int               `json:"seconds"`
	Trials    int               `json:"trials"`
	Claim     *string           `json:"claim"` // always null: this benchmark claims no gain
	Workloads []*workloadReport `json:"workloads"`
}

// hostInfo is the fingerprint a wall-clock number is meaningless without.
type hostInfo struct {
	NProc      int    `json:"nproc"`
	GOMAXPROCS int    `json:"gomaxprocs"`
	GoVersion  string `json:"go_version"`
	CPUModel   string `json:"cpu_model"`
	GitCommit  string `json:"git_commit"`
	Date       string `json:"date"`
}

func hostFingerprint() hostInfo {
	h := hostInfo{
		NProc:      runtime.NumCPU(),
		GOMAXPROCS: benchProcs(),
		GoVersion:  runtime.Version(),
		CPUModel:   "unknown",
		GitCommit:  "unknown",
		Date:       time.Now().UTC().Format("2006-01-02"),
	}
	if data, err := os.ReadFile("/proc/cpuinfo"); err == nil {
		for _, line := range strings.Split(string(data), "\n") {
			if k, v, ok := strings.Cut(line, ":"); ok && strings.TrimSpace(k) == "model name" {
				h.CPUModel = strings.TrimSpace(v)
				break
			}
		}
	}
	if out, err := exec.Command("git", "rev-parse", "HEAD").Output(); err == nil {
		h.GitCommit = strings.TrimSpace(string(out))
	}
	return h
}

// childOutcome is what the parent learned from one child process.
type childOutcome struct {
	res      *trialResult
	planned  int64
	progress int64
	// dump is the child's stderr when the watchdog had to stop it.
	dump string
}

// runChild re-executes this binary for one trial and watches it.
func runChild(spec trialSpec, limit time.Duration) (*childOutcome, error) {
	self, err := os.Executable()
	if err != nil {
		return nil, err
	}
	args := []string{"-child", "-workload", spec.Workload, "-seed", strconv.FormatInt(spec.Seed, 10), "-n", strconv.Itoa(spec.N)}
	if spec.Traced {
		args = append(args, "-trace", "1", "-trace-out", spec.TraceOut)
	}
	if spec.SetupOnly {
		args = append(args, "-setup-only")
	}
	out, err := watchChild(exec.Command(self, args...), limit)
	if err != nil {
		return nil, fmt.Errorf("trial of %s: %w", spec.Workload, err)
	}
	return out, nil
}

// watchChild starts cmd and reads the childMsg lines it prints.  A child
// still running after limit is sent SIGQUIT, which makes the Go runtime dump
// every goroutine to stderr and exit; the dump is returned (with a nil
// result) so that a hang — a lost wake-up, say — becomes failed ops with a
// diagnosis, never a stuck pipeline.
func watchChild(cmd *exec.Cmd, limit time.Duration) (*childOutcome, error) {
	var stderr bytes.Buffer
	cmd.Stderr = &stderr
	stdout, err := cmd.StdoutPipe()
	if err != nil {
		return nil, err
	}
	if err := cmd.Start(); err != nil {
		return nil, err
	}
	var hung atomic.Bool
	quit := time.AfterFunc(limit, func() {
		hung.Store(true)
		_ = cmd.Process.Signal(syscall.SIGQUIT)
		// A process too wedged to dump its goroutines is killed outright.
		time.AfterFunc(10*time.Second, func() { _ = cmd.Process.Kill() })
	})
	out := &childOutcome{}
	sc := bufio.NewScanner(stdout)
	sc.Buffer(make([]byte, 1<<20), 64<<20)
	for sc.Scan() {
		var m childMsg
		if err := json.Unmarshal(sc.Bytes(), &m); err != nil {
			continue
		}
		switch {
		case m.Planned != nil:
			out.planned = *m.Planned
		case m.Progress != nil:
			out.progress = *m.Progress
		case m.Result != nil:
			out.res = m.Result
		}
	}
	werr := cmd.Wait()
	quit.Stop()
	if hung.Load() {
		out.res = nil
		out.dump = stderr.String()
		return out, nil
	}
	if werr != nil || out.res == nil {
		return nil, fmt.Errorf("child failed: %v\n%s", werr, stderr.String())
	}
	return out, nil
}

// runWorkload runs one trial per entry of traced (true = a traced trial) and
// aggregates them: end-to-end metrics from the untraced trials only, per-layer
// metrics from the traced one.
func runWorkload(w *workloadDef, seed int64, seconds int, traced []bool, traceDir string) (*workloadReport, error) {
	n := w.scale(seconds)
	if n < 1 {
		n = 1
	}
	rep := &workloadReport{Name: w.Name, Why: w.Why, N: n, Clients: w.clients(), E2E: map[string]e2eValue{}}
	window := float64(seconds) / trialsPerRun
	var plain []*trialResult
	var tracedRes *trialResult
	for _, tr := range traced {
		spec := trialSpec{Workload: w.Name, Seed: seed, N: n, Traced: tr}
		calibrated := w.SetupS + window + 1
		if tr {
			calibrated += 4 // probes and writing the spans out
			if traceDir != "" {
				if err := os.MkdirAll(traceDir, 0o755); err != nil {
					return nil, err
				}
				spec.TraceOut = filepath.Join(traceDir, "trace_"+w.Name+".jsonl")
			}
		}
		out, err := runChild(spec, time.Duration(3*calibrated*float64(time.Second)))
		if err != nil {
			return nil, err
		}
		if out.res == nil {
			// Hung: what it had not finished counts as attempted and failed.
			planned := out.planned
			if planned < 1 {
				planned = int64(n)
			}
			rep.Attempted += int(planned)
			rep.Failed += int(planned - out.progress)
			rep.Hung = append(rep.Hung, out.dump)
			if rep.FirstError == "" {
				rep.FirstError = fmt.Sprintf("trial hung after %d of %d ops; stopped by the watchdog", out.progress, planned)
			}
			continue
		}
		rep.Attempted += out.res.Ops
		rep.Failed += out.res.Failed
		rep.LostAcked += out.res.LostAcked
		if rep.FirstError == "" {
			rep.FirstError = out.res.FirstError
		}
		if tr {
			tracedRes = out.res
		} else {
			plain = append(plain, out.res)
		}
	}
	rep.FailedFrac = ratio(float64(rep.Failed), float64(rep.Attempted))

	// A millisecond-scale set-up is mostly first-touch page faults, and three
	// samples of it do not repeat; fresh processes that only set up add more.
	var setups []float64
	for i := 0; i < w.ExtraSetups; i++ {
		spec := trialSpec{Workload: w.Name, Seed: seed, N: n, SetupOnly: true}
		out, err := runChild(spec, time.Duration(3*(w.SetupS+1)*float64(time.Second)))
		if err != nil {
			return nil, err
		}
		if out.res != nil {
			setups = append(setups, out.res.E2E["setup_s"])
		}
	}

	for _, def := range endToEnd {
		var xs []float64
		for _, r := range plain {
			xs = append(xs, r.E2E[def.Name])
		}
		if def.Name == "setup_s" {
			xs = append(xs, setups...)
		}
		lo, hi := minMax(xs)
		rep.E2E[def.Name] = e2eValue{Median: median(xs), Min: lo, Max: hi, Unit: def.Unit, Trials: xs}
	}
	if tracedRes != nil {
		rep.Layer = tracedRes.Layer
		for _, def := range perLayer {
			if _, ok := rep.Layer[def.Name]; !ok {
				rep.Layer[def.Name] = 0 // a layer the workload never touched
			}
		}
		rep.Ladder, rep.SpanSelf, rep.SimByKind = tracedRes.Ladder, tracedRes.SpanSelf, tracedRes.SimByKind
		rep.Layer["trace.overhead_frac"] = 1 - ratio(tracedRes.E2E["ops_per_s"], rep.E2E["ops_per_s"].Median)
		// The ladder compares against the traced trial's own latencies.
		printLadder(os.Stdout, tracedRes)
	}
	return rep, nil
}

// printReport prints every metric of a workload by name, with its unit.
func printReport(w io.Writer, rep *workloadReport, e2e, layers bool) {
	fmt.Fprintf(w, "%s: N=%d clients=%d attempted=%d failed=%d failed_frac=%g lost_acked_writes=%d\n",
		rep.Name, rep.N, rep.Clients, rep.Attempted, rep.Failed, rep.FailedFrac, rep.LostAcked)
	if rep.FirstError != "" {
		fmt.Fprintf(w, "  first error: %s\n", rep.FirstError)
	}
	for _, dump := range rep.Hung {
		fmt.Fprintf(w, "  hung trial, goroutine dump:\n%s\n", dump)
	}
	if e2e {
		for _, def := range endToEnd {
			v := rep.E2E[def.Name]
			fmt.Fprintf(w, "  %-28s %14.4f %-6s (min %.4f, max %.4f over %d trials; %s is better, bound %g%%)\n",
				def.Name, v.Median, def.Unit, v.Min, v.Max, len(v.Trials), def.Better, 100*def.Bound)
		}
	}
	if layers && rep.Layer != nil {
		for _, def := range perLayer {
			fmt.Fprintf(w, "  %-34s %16.4f %s\n", def.Name, rep.Layer[def.Name], def.Unit)
		}
	}
}

// driverLine is the contract's last line of standard output.
type driverLine struct {
	Correct   bool                   `json:"correct"`
	Attempted int                    `json:"attempted"`
	Failed    int                    `json:"failed"`
	Metrics   map[string]driverValue `json:"metrics"`
}

type driverValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// runDriver is one run of one workload in the shape BENCHMARK.json's command
// promises: the end-to-end metrics with -trace 0, the per-layer ones with
// -trace 1, as one JSON object on the last line of standard output.
func runDriver(w *workloadDef, seed int64, seconds int, trace bool, traceDir string) error {
	plan := []bool{false, false, false}
	if trace {
		// Untraced trials on both sides of the traced one bracket any drift
		// in trace.overhead_frac.
		plan = []bool{false, true, false}
	}
	rep, err := runWorkload(w, seed, seconds, plan, traceDir)
	if err != nil {
		return err
	}
	printReport(os.Stdout, rep, !trace, trace)
	line := driverLine{Correct: rep.correct(), Attempted: rep.Attempted, Failed: rep.Failed + rep.LostAcked, Metrics: map[string]driverValue{}}
	if trace {
		if rep.Layer == nil {
			return fmt.Errorf("%s: the traced trial did not finish", w.Name)
		}
		for _, def := range perLayer {
			line.Metrics[def.Name] = driverValue{rep.Layer[def.Name], def.Unit}
		}
	} else {
		for _, def := range endToEnd {
			line.Metrics[def.Name] = driverValue{rep.E2E[def.Name].Median, def.Unit}
		}
	}
	data, err := json.Marshal(line)
	if err != nil {
		return err
	}
	fmt.Println(string(data))
	return nil
}

// runSet runs every workload — three untraced trials each, plus one traced
// trial with -trace 1 — prints every metric, and writes the report to out.
func runSet(seed int64, seconds int, trace bool, traceDir, out string) error {
	report := &runReport{Host: hostFingerprint(), Seed: seed, Seconds: seconds, Trials: trialsPerRun}
	plan := []bool{false, false, false}
	if trace {
		plan = append(plan, true)
	}
	ok := true
	for i := range workloads {
		rep, err := runWorkload(&workloads[i], seed, seconds, plan, traceDir)
		if err != nil {
			return err
		}
		printReport(os.Stdout, rep, true, true)
		report.Workloads = append(report.Workloads, rep)
		ok = ok && rep.correct()
	}
	if out != "" {
		data, err := json.MarshalIndent(report, "", "  ")
		if err != nil {
			return err
		}
		if err := os.WriteFile(out, append(data, '\n'), 0o644); err != nil {
			return err
		}
	}
	if !ok {
		return fmt.Errorf("some ops failed or acknowledged writes were lost; see above")
	}
	return nil
}
