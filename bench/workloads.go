package main

// workloadDef names one workload.  The names are fixed: later changes refer
// to them.
type workloadDef struct {
	Name string
	// Why records the reason the workload exists (mirrored in BENCHMARK.json).
	Why string
	// UnitsPerSec is the scale unit N per second of measured window,
	// calibrated once at the seed commit on the host named in README.md and
	// then frozen: N = UnitsPerSec × seconds ÷ trials.  Counts are fixed, not
	// durations, because at the seed the cost of an op depends on how many
	// came before it, so only a fixed count is the same work on both sides of
	// a comparison.
	UnitsPerSec float64
	// SetupS is the calibrated set-up time, which the watchdog allows for.
	SetupS float64
	// Clients is the number of closed-loop client goroutines: 0 means
	// min(nproc, 4), the web workloads' shape; the others have exactly one.
	Clients int
	// ExtraSetups is how many more fresh processes set the system up, without
	// running a window, so that setup_s is a median of more than three.
	ExtraSetups int
	// Setup builds the system up to its first timed op and returns the
	// function that runs the measured window on it.
	Setup func(t *trial) (func() error, error)
}

var workloads = []workloadDef{
	{
		Name:        "web_warm",
		Why:         "64 users all cached: steady state of the web service (lane, ring batch, gate enter, worker, reply read, label cache); logins, clones and the store idle",
		UnitsPerSec: 68000,
		SetupS:      0.1,
		ExtraSetups: 6,
		Setup:       func(t *trial) (func() error, error) { return setupWeb(t, webWarmShape) },
	},
	{
		Name:        "web_churn",
		Why:         "512 users on 64 sessions, half writes: nearly every request evicts and cold-logins (auth gates, process creation, golden clone, teardown); ring fast path is under 1%",
		UnitsPerSec: 600,
		SetupS:      1.0,
		Setup:       func(t *trial) (func() error, error) { return setupWeb(t, webChurnShape) },
	},
	{
		Name:        "unix_build",
		Why:         "Figure 13 build row at length, no store: spawn or fork+exec a compiler per unit, read, burn CPU, write, wait, check, unlink; direct syscalls on labels that grow",
		UnitsPerSec: 675,
		SetupS:      0.01,
		ExtraSetups: 6,
		Clients:     1,
		Setup:       setupUnixBuild,
	},
	{
		Name:        "lfs_sync",
		Why:         "per-file fsync on a store-backed system: unixlib mirror, SyncObject, WAL group commit, one flush per op; crash, reopen and verify every acknowledged object",
		UnitsPerSec: 1750,
		SetupS:      0.05,
		ExtraSetups: 6,
		Clients:     1,
		Setup:       setupLFSSync,
	},
	{
		Name:        "lfs_ckpt",
		Why:         "same store the other way: async creates and churn under group syncs, cold reads, sequential append, synchronous unlinks; checkpoints, cleaner and recovery carry it, not the WAL",
		UnitsPerSec: 1850,
		SetupS:      0.01,
		ExtraSetups: 6,
		Clients:     1,
		Setup:       setupLFSCkpt,
	},
}

func findWorkload(name string) *workloadDef {
	for i := range workloads {
		if workloads[i].Name == name {
			return &workloads[i]
		}
	}
	return nil
}

// trialsPerRun is how many fresh-boot trials one run takes; every end-to-end
// metric is the median over them.
const trialsPerRun = 3

// scale returns the workload's N for a run of the given measured seconds.
func (w *workloadDef) scale(seconds int) int {
	return int(w.UnitsPerSec * float64(seconds) / trialsPerRun)
}

func (w *workloadDef) clients() int {
	if w.Clients > 0 {
		return w.Clients
	}
	return benchProcs()
}
