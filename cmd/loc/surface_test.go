package main

import (
	"go/ast"
	"go/parser"
	"go/token"
	"os"
	"path"
	"path/filepath"
	"sort"
	"strconv"
	"strings"
	"testing"
)

const modulePath = "histar"

// keep lists every exported function and method of the internal/ packages
// that no non-test file references, each with the reason it stays: a Unix
// call the paper's library provides, a paper component, or test plumbing.
// An exported name that is neither used by running code nor listed here is
// code only a test can reach: delete it, or say here why not.
var keep = map[string]string{
	// The paper's system calls that no library path happens to exercise.
	"kernel.ThreadCall.AlertWait":           "paper system call (alerts, Section 3.4)",
	"kernel.ThreadCall.ContainerGetParent":  "paper system call (container_get_parent)",
	"kernel.ThreadCall.DeviceMAC":           "paper system call (the network device's three calls, Section 4.1)",
	"kernel.ThreadCall.LocalSegmentRead":    "paper system call (thread-local segment, Section 3.4)",
	"kernel.ThreadCall.LocalSegmentWrite":   "paper system call (thread-local segment, Section 3.4)",
	"kernel.ThreadCall.MemRead":             "a load through the address space: the paper's page-fault path",
	"kernel.ThreadCall.MemWrite":            "a store through the address space: the paper's page-fault path",
	"kernel.ThreadCall.SelfAddressSpace":    "paper system call (self_get_as)",
	"kernel.ThreadCall.SelfSetAddressSpace": "paper system call (self_set_as)",
	"kernel.ThreadCall.SetFaultHandler":     "the user-level page-fault upcall of Section 3.4",

	// The Unix calls of the paper's library that no daemon or example
	// happens to make.
	"unixlib.Process.Seek":      "Unix call (lseek)",
	"unixlib.Process.Rename":    "Unix call (rename)",
	"unixlib.Process.ReadDir":   "Unix call (readdir)",
	"unixlib.Process.Chdir":     "Unix call (chdir)",
	"unixlib.Process.FsyncMany": "Unix call (fsync of several descriptors as one kernel sync)",

	// Paper components no running path starts.
	"unixlib.Process.HandlePendingSignals": "paper component: the library's signal handler vector (Section 5.6)",
	"clamav.UpdateDaemon":                  "paper component: ClamAV's update daemon (Section 6.1)",

	// The Linux comparison rows of Figures 12 and 13 (root bench_test.go).
	"baseline.New":                 "Linux baseline rows of the Figure 12/13 benchmarks",
	"baseline.OS.ForkExec":         "Linux baseline rows of the Figure 12/13 benchmarks",
	"baseline.OS.NewPipe":          "Linux baseline rows of the Figure 12/13 benchmarks",
	"baseline.OS.ReadFileUncached": "Linux baseline rows of the Figure 12/13 benchmarks",
	"baseline.OS.Syscalls":         "Linux baseline rows of the Figure 12/13 benchmarks",

	// Operator integrity surface.
	"store.Store.Scrub":              "integrity: the background checksum walk an operator schedules",
	"store.Store.QuarantinedObjects": "integrity: enumerates what a damage verdict fell on",
	"store.Store.IntegrityStats":     "integrity: corruption accounting",
	"store.RecoveryReport.Degraded":  "integrity: whether the mount took a ladder rung",
	"store.CorruptError.Is":          "errors.Is protocol: a CorruptError matches ErrCorrupt",
	"store.QuarantineError.Is":       "errors.Is protocol: a QuarantineError matches ErrQuarantined and ErrCorrupt",

	// Test plumbing.
	"kernel.Kernel.ResetSyscallCounts": "test plumbing: the syscall-budget tests count from zero",
	"kernel.ThreadCall.SyscallsIssued": "test plumbing: per-thread syscall budgets",
	"store.Store.Disk":                 "test plumbing: the library's crash tests cut power to the device under a booted system",
	"unixlib.Process.Run":              "test plumbing: drives a forked process with an inline program body",
	"unixlib.Process.FDTable":          "test plumbing: the whole-file and descriptor tests check what stays open",
	"clamav.EncodeArchive":             "test plumbing: builds the scanner's archive inputs",
	"auth.Service.PasswordHashHex":     "test plumbing: what an attacker who compromised the user's auth daemon could read",
	"vclock.Clock.Reset":               "test plumbing: the Figure 12/13 benchmarks time each row from zero",
	"disk.Disk.ResetStats":             "test plumbing: the disk and baseline tests count from zero",
	"disk.Disk.SetReadAhead":           "test plumbing: the LFS read benchmark runs with the disk's look-ahead off",
	"disk.Disk.FailNextFlush":          "test plumbing: fault injection (a failed cache flush)",
	"disk.Disk.FailFlushAfter":         "test plumbing: fault injection (power lost mid-destage)",
	"disk.NewFaultDisk":                "test plumbing: fault injection (the crash-point device)",
	"disk.FaultDisk.Arm":               "test plumbing: fault injection (crash after so many bytes written)",
	"disk.FaultDisk.ArmFlush":          "test plumbing: fault injection (crash at a flush)",
	"disk.FaultDisk.ArmRot":            "test plumbing: fault injection (bit rot on read)",
	"disk.FaultDisk.DisarmRot":         "test plumbing: fault injection (bit rot off)",
	"disk.FaultDisk.Inner":             "test plumbing: fault injection (the device reopened after the power failure)",
	"disk.FaultDisk.RotBits":           "test plumbing: fault injection (a one-shot dose of bit rot)",
	"disk.FaultDisk.SetFlipSeed":       "test plumbing: fault injection (reproducible bit flips)",
	"disk.FaultDisk.Tripped":           "test plumbing: fault injection (whether the crash point fired)",
	"disk.FaultDisk.WriteBounds":       "test plumbing: fault injection (the write boundaries crash points are drawn from)",
}

// export is one exported function (recv "") or method of an internal/ package.
type export struct{ dir, recv, name string }

func (e export) String() string {
	s := strings.TrimPrefix(e.dir, "internal/") + "."
	if e.recv != "" {
		s += e.recv + "."
	}
	return s + e.name
}

// TestInternalSurfaceIsReferenced parses every non-test Go file in the module
// and compares what the internal/ packages export with what is used.  A
// function is referenced by pkg.F in a file that imports its package, or by a
// bare F inside it; a method by any selector of its name on something that is
// not an imported package (go/parser knows no types, so methods match by name
// alone, and a method reached only through an interface is referenced only if
// something calls the interface's method).
func TestInternalSurfaceIsReferenced(t *testing.T) {
	root := filepath.Join("..", "..")
	funcUses := map[string]int{}   // "import/path.F": qualified uses, and bare uses less the declaration
	methodUses := map[string]int{} // "M": selectors x.M where x is not a package
	var exports []export
	fset := token.NewFileSet()
	err := filepath.Walk(root, func(file string, info os.FileInfo, err error) error {
		if err != nil {
			return err
		}
		if info.IsDir() && strings.HasPrefix(info.Name(), ".") && file != root {
			return filepath.SkipDir
		}
		if info.IsDir() || !strings.HasSuffix(file, ".go") || strings.HasSuffix(file, "_test.go") {
			return nil
		}
		f, err := parser.ParseFile(fset, file, nil, parser.SkipObjectResolution)
		if err != nil {
			return err
		}
		rel, _ := filepath.Rel(root, filepath.Dir(file))
		dir := filepath.ToSlash(rel)
		self := path.Join(modulePath, dir)
		imports := map[string]string{}
		for _, im := range f.Imports {
			p, _ := strconv.Unquote(im.Path.Value)
			name := path.Base(p)
			if im.Name != nil {
				name = im.Name.Name
			}
			imports[name] = p
		}
		sel := map[*ast.Ident]bool{} // the M of each x.M: not a bare use of a function M
		ast.Inspect(f, func(n ast.Node) bool {
			switch n := n.(type) {
			case *ast.SelectorExpr:
				if x, ok := n.X.(*ast.Ident); ok && imports[x.Name] != "" {
					funcUses[imports[x.Name]+"."+n.Sel.Name]++
					return false
				}
				methodUses[n.Sel.Name]++
				sel[n.Sel] = true
			case *ast.Ident:
				if !sel[n] {
					funcUses[self+"."+n.Name]++
				}
			case *ast.FuncDecl:
				if n.Recv == nil {
					funcUses[self+"."+n.Name.Name]-- // the Ident case counts the declaration itself
				}
				if !strings.HasPrefix(dir, "internal/") || !n.Name.IsExported() {
					break
				}
				e := export{dir: dir, name: n.Name.Name}
				if n.Recv != nil {
					recv := n.Recv.List[0].Type
					if s, ok := recv.(*ast.StarExpr); ok {
						recv = s.X
					}
					id, ok := recv.(*ast.Ident)
					if !ok || !id.IsExported() {
						break
					}
					e.recv = id.Name
				}
				exports = append(exports, e)
			}
			return true
		})
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	unreferenced := map[string]bool{}
	for _, e := range exports {
		used := methodUses[e.name]
		if e.recv == "" {
			used = funcUses[path.Join(modulePath, e.dir)+"."+e.name]
		}
		if used == 0 {
			unreferenced[e.String()] = true
		}
	}
	var errs []string
	for name := range unreferenced {
		if keep[name] == "" {
			errs = append(errs, name+" is exported, referenced by no non-test file and has no reason in keep")
		}
	}
	for name := range keep {
		if !unreferenced[name] {
			errs = append(errs, "keep lists "+name+", which is referenced or gone: drop the entry")
		}
	}
	sort.Strings(errs)
	for _, e := range errs {
		t.Error(e)
	}
}
