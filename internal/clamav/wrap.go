package clamav

import (
	"errors"
	"fmt"
	"strings"
	"time"

	"histar/internal/label"
	"histar/internal/unixlib"
)

// Wrap is the paper's 110-line isolation program (Section 6.1).  It is the
// only component with untainting privileges for the scanner's category v:
// it allocates v, creates a private scratch directory and a report file
// writable at v3, launches the scanner tainted v3 (and ur3, so the scanner
// can read — but not modify or export — the user's files), waits for it,
// reads the report back with its ownership of v, and returns the untainted
// result to the caller.  As long as Wrap is correct, ClamAV cannot leak the contents of
// the files it scans, no matter how compromised it is.

// ScannerProgram is the path wrap launches; register clamav.Scanner there.
const ScannerProgram = "/bin/clamscan"

// WrapOptions tune the isolation wrapper.
type WrapOptions struct {
	// Timeout bounds how long the scanner may run before wrap kills it,
	// limiting how much it could leak over covert channels.
	Timeout time.Duration
	// KeepScratch leaves the private scratch directory and the report file
	// in place (debugging).
	KeepScratch bool
}

// WrapResult is what wrap reports back to the user.
type WrapResult struct {
	// Report is the scanner's (untainted) per-file output.
	Report string
	// Infected lists files the scanner flagged.
	Infected []string
	// ExitStatus is the scanner's exit status (0 clean, 1 infections found,
	// 2 errors).
	ExitStatus int
	// TimedOut reports whether wrap killed the scanner at the deadline.
	TimedOut bool
	// V is the isolation category wrap allocated (exposed for tests).
	V label.Category
}

// ErrScannerTimeout is reported when the scanner exceeds its deadline.
var ErrScannerTimeout = errors.New("clamav: scanner timed out")

// Wrap scans the given files on behalf of user (a process running with the
// user's privileges) and returns the untainted result.
func Wrap(user *unixlib.Process, files []string, opts WrapOptions) (*WrapResult, error) {
	if opts.Timeout == 0 {
		opts.Timeout = 30 * time.Second
	}
	tc := user.TC

	// Allocate the isolation category.  wrap — running with the user's
	// privileges — is its only owner.
	v, err := tc.CategoryCreate()
	if err != nil {
		return nil, err
	}

	// Private scratch directory, writable at taint level 3 in v: the tainted
	// scanner's own /tmp.
	scratch := fmt.Sprintf("/tmp/wrap-%d", user.PID)
	scratchLabel := label.New(label.L1, label.P(v, label.L3))
	if user.User != nil {
		scratchLabel = scratchLabel.With(user.User.Ur, label.L3)
	}
	if err := user.Mkdir(scratch, scratchLabel); err != nil {
		return nil, fmt.Errorf("wrap: creating scratch dir: %w", err)
	}
	if !opts.KeepScratch {
		defer user.Unlink(scratch) // reads only its count: left if not empty
	}
	// The report is a file wrap makes beside the scratch directory, not in
	// it, so wrap resolves no path through a directory the scanner can write:
	// a writer of a directory can hold its mutex for good, and a reader of it
	// sleeps while the mutex is held.  The scanner can write the report's
	// bytes but, unable to change /tmp, neither its name nor its quota.
	reportPath := scratch + ".report"
	if err := makeReport(user, reportPath, scratchLabel); err != nil {
		return nil, fmt.Errorf("wrap: creating report file: %w", err)
	}
	if !opts.KeepScratch {
		defer user.Unlink(reportPath)
	}

	// Launch the scanner tainted v3.  It also gets ur3 so it can read the
	// user's files; it gets no ownership of anything.
	taint := []label.Pair{label.P(v, label.L3)}
	if user.User != nil {
		taint = append(taint, label.P(user.User.Ur, label.L3))
	}
	args := append(append([]string{}, files...), reportPath)
	scanner, err := user.SpawnTainted(ScannerProgram, args, taint)
	if err != nil {
		return nil, fmt.Errorf("wrap: launching scanner: %w", err)
	}

	// Wait with a deadline; killing the scanner bounds covert-channel
	// leakage through timing.
	res := &WrapResult{V: v}
	status, timedOut := waitWithTimeout(user, scanner, opts.Timeout)
	res.ExitStatus = status
	res.TimedOut = timedOut
	if timedOut {
		return res, ErrScannerTimeout
	}

	// Read the (tainted) report with wrap's ownership of v and untaint it by
	// returning it as plain data to the caller.
	data, err := user.ReadFile(reportPath)
	if err != nil {
		return nil, fmt.Errorf("wrap: reading report: %w", err)
	}
	res.Report = string(data)
	for _, line := range strings.Split(res.Report, "\n") {
		if strings.Contains(line, ": FOUND ") {
			res.Infected = append(res.Infected, strings.SplitN(line, ":", 2)[0])
		}
	}
	return res, nil
}

// reportRoom is the quota wrap moves into the report file: far more than the
// line per scanned file a scanner writes.
const reportRoom = 1 << 20

// makeReport creates the empty report file at path, labeled lbl, and moves
// reportRoom bytes of quota into it from /tmp, which holds it.
func makeReport(user *unixlib.Process, path string, lbl label.Label) error {
	fd, err := user.Create(path, lbl)
	if err != nil {
		return err
	}
	if err := user.Close(fd); err != nil {
		return err
	}
	tmp, err := user.Stat("/tmp")
	if err != nil {
		return err
	}
	report, err := user.Stat(path)
	if err != nil {
		return err
	}
	return user.TC.QuotaMove(tmp.ID, report.ID, reportRoom)
}

// waitWithTimeout waits for child to exit, or halts it at the deadline.
func waitWithTimeout(parent, child *unixlib.Process, timeout time.Duration) (status int, timedOut bool) {
	done := make(chan int, 1)
	go func() {
		st, err := parent.Wait(child)
		if err != nil {
			st = 2
		}
		done <- st
	}()
	select {
	case st := <-done:
		return st, false
	case <-time.After(timeout):
		// Kill the scanner: halt its main thread and reap it.
		_ = child.TC.ThreadHalt()
		child.Exit(137)
		select {
		case st := <-done:
			return st, true
		case <-time.After(time.Second):
			return 137, true
		}
	}
}
