package main

import (
	"go/ast"
	"go/build"
	"go/importer"
	"go/parser"
	"go/token"
	"go/types"
	"os"
	"path"
	"path/filepath"
	"slices"
	"sort"
	"strings"
	"testing"
)

const modulePath = "histar"

// keep lists every exported name of the internal/ packages that no non-test
// code uses, each with the reason it stays: a call or call result of the
// paper's kernel or Unix library, a paper component, the Linux baseline, the
// operator's integrity surface, the syscall ring, or test plumbing.  An
// exported name that is neither used by running code nor listed here is code
// only a test can reach: delete it, or say here why not.
var keep = map[string]string{
	// The paper's system calls that no library path happens to make, and
	// the parts of their results no caller reads.
	"kernel.ThreadCall.AlertWait":           "paper system call (alerts, Section 3.4)",
	"kernel.ThreadCall.ContainerGetParent":  "paper system call (container_get_parent)",
	"kernel.ThreadCall.DeviceMAC":           "paper system call (the network device's three calls, Section 4.1)",
	"kernel.ThreadCall.DeviceWait":          "paper system call (net_wait); netd drains the device on the receiving caller's thread, since the simulated link delivers synchronously",
	"kernel.ThreadCall.LocalSegmentRead":    "paper system call (thread-local segment, Section 3.4)",
	"kernel.ThreadCall.LocalSegmentWrite":   "paper system call (thread-local segment, Section 3.4)",
	"kernel.ThreadCall.MemRead":             "a load through the address space: the paper's page-fault path",
	"kernel.ThreadCall.MemWrite":            "a store through the address space: the paper's page-fault path",
	"kernel.ThreadCall.SelfAddressSpace":    "paper system call (self_get_as)",
	"kernel.ThreadCall.SelfSetAddressSpace": "paper system call (self_set_as)",
	"kernel.ThreadCall.SetFaultHandler":     "the user-level page-fault upcall of Section 3.4",
	"kernel.MapExec":                        "paper: an address-space mapping's execute permission (Section 3.4)",
	"kernel.Stat.ID":                        "paper call result: obj_get_stat's object id",
	"kernel.Stat.Usage":                     "paper call result: obj_get_stat's quota in use (Section 3.5)",
	"kernel.Stat.FixedQuota":                "paper call result: obj_get_stat's fixed-quota flag (Section 3.5)",
	"kernel.Stat.Immutable":                 "paper call result: obj_get_stat's immutable flag (Section 3.5)",
	"kernel.GateCallCtx.Verify":             "paper call result: the verify label a gate caller proves (Section 3.6)",
	"kernel.GateCallCtx.Closure":            "paper call result: the gate's closure arguments (Section 3.6)",

	// The Unix calls of the paper's library, and parts of their results,
	// that no daemon or example happens to use.
	"unixlib.Process.Seek":      "Unix call (lseek)",
	"unixlib.Process.Rename":    "Unix call (rename)",
	"unixlib.Process.ReadDir":   "Unix call (readdir)",
	"unixlib.Process.Chdir":     "Unix call (chdir)",
	"unixlib.Process.FsyncMany": "Unix call (fsync of several descriptors as one kernel sync)",
	"unixlib.Process.Kill":      "Unix call (kill)",
	"unixlib.Process.Signal":    "Unix call (signal: install a handler)",
	"unixlib.Process.Pipe":      "Unix call (pipe)",
	"unixlib.Process.Read":      "Unix call (read)",
	"unixlib.SIGTERM":           "Unix signal number, for kill and signal",
	"unixlib.SIGUSR1":           "Unix signal number, for kill and signal",
	"unixlib.FileInfo.Name":     "Unix call result: stat's name",
	"unixlib.FileInfo.Size":     "Unix call result: stat's size",
	"unixlib.FileInfo.Mtime":    "Unix call result: stat's modification time",

	// Paper components no running path starts.
	"unixlib.Process.HandlePendingSignals": "paper component: the library's signal handler vector (Section 5.6)",
	"clamav.UpdateDaemon":                  "paper component: ClamAV's update daemon (Section 6.1)",
	"clamav.WrapResult.TimedOut":           "paper component: wrap's report that it killed the scanner at its deadline (Section 6.1)",

	// The Linux comparison rows of Figures 12 and 13 (root bench_test.go).
	"baseline.New":                 "Linux baseline rows of the Figure 12/13 benchmarks",
	"baseline.VariantLinux":        "Linux baseline rows of the Figure 12/13 benchmarks",
	"baseline.OS.ForkExec":         "Linux baseline rows of the Figure 12/13 benchmarks",
	"baseline.OS.NewPipe":          "Linux baseline rows of the Figure 12/13 benchmarks",
	"baseline.OS.ReadFile":         "Linux baseline rows of the Figure 12/13 benchmarks",
	"baseline.OS.ReadFileUncached": "Linux baseline rows of the Figure 12/13 benchmarks",
	"baseline.OS.Sync":             "Linux baseline rows of the Figure 12/13 benchmarks",
	"baseline.OS.Syscalls":         "Linux baseline rows of the Figure 12/13 benchmarks",
	"baseline.OS.Unlink":           "Linux baseline rows of the Figure 12/13 benchmarks",
	"baseline.OS.WriteFile":        "Linux baseline rows of the Figure 12/13 benchmarks",
	"baseline.Pipe.Read":           "Linux baseline rows of the Figure 12/13 benchmarks",
	"baseline.Pipe.Write":          "Linux baseline rows of the Figure 12/13 benchmarks",

	// Operator integrity surface.
	"store.Store.Close":                   "operator: the clean unmount (a last checkpoint, then ErrClosed for every call)",
	"store.Store.Scrub":                   "integrity: the background checksum walk an operator schedules",
	"store.ScrubStats.ObjectsChecked":     "integrity: what one scrub pass verified",
	"store.ScrubStats.ObjectsQuarantined": "integrity: what one scrub pass verified",
	"store.ScrubStats.CorruptionsFound":   "integrity: what one scrub pass verified",
	"store.ScrubStats.BasesChecked":       "integrity: what one scrub pass verified",
	"store.ScrubStats.BasesOK":            "integrity: what one scrub pass verified",
	"store.ScrubStats.SuperblockCopiesOK": "integrity: what one scrub pass verified",
	"store.ScrubStats.Duration":           "integrity: what one scrub pass verified",
	"store.ScrubStats.BytesVerified":      "integrity: what one scrub pass verified",
	"store.Store.QuarantinedObjects":      "integrity: enumerates what a damage verdict fell on",
	"store.Stats.CorruptionsDetected":     "integrity: every checksum or structural failure the store detected",
	"store.Stats.QuarantineEvents":        "integrity: every object a damage verdict quarantined",
	"store.RecoveryReport.MetaEpoch":      "integrity: the checkpoint epoch the mount loaded",
	"store.CorruptError.Is":               "errors.Is protocol: a CorruptError matches ErrCorrupt",
	"store.QuarantineError.Is":            "errors.Is protocol: a QuarantineError matches ErrQuarantined and ErrCorrupt",

	// Test plumbing.
	"kernel.Kernel.ResetSyscallCounts": "test plumbing: the syscall-budget tests count from zero",
	"kernel.ThreadCall.SyscallsIssued": "test plumbing: per-thread syscall budgets",
	"store.Store.Disk":                 "test plumbing: the library's crash tests cut power to the device under a booted system",
	"unixlib.Process.Run":              "test plumbing: drives a forked process with an inline program body",
	"unixlib.Process.FDTable":          "test plumbing: the whole-file and descriptor tests check what stays open",
	"clamav.EncodeArchive":             "test plumbing: builds the scanner's archive inputs",
	"clamav.WrapResult.V":              "test plumbing: the wrap tests check the isolation category's level",
	"auth.Service.PasswordHashHex":     "test plumbing: what an attacker who compromised the user's auth daemon could read",
	"vclock.Clock.Reset":               "test plumbing: the Figure 12/13 benchmarks time each row from zero",
	"disk.Stats.Reads":                 "test plumbing: the disk and store tests count device reads",
	"disk.Disk.ResetStats":             "test plumbing: the disk and baseline tests count from zero",
	"disk.Disk.SetReadAhead":           "test plumbing: the LFS read benchmark runs with the disk's look-ahead off",
	"disk.Disk.FailNextFlush":          "test plumbing: fault injection (a failed cache flush)",
	"disk.Disk.FailFlushAfter":         "test plumbing: fault injection (power lost mid-destage)",
	"disk.NewFaultDisk":                "test plumbing: fault injection (the crash-point device)",
	"disk.FaultDisk.ReadAt":            "test plumbing: fault injection (the crash-point device's block interface)",
	"disk.FaultDisk.WriteAt":           "test plumbing: fault injection (the crash-point device's block interface)",
	"disk.FaultDisk.Flush":             "test plumbing: fault injection (the crash-point device's block interface)",
	"disk.FaultDisk.Size":              "test plumbing: fault injection (the crash-point device's block interface)",
	"disk.FaultDisk.Arm":               "test plumbing: fault injection (crash after so many bytes written)",
	"disk.FaultDisk.ArmFlush":          "test plumbing: fault injection (crash at a flush)",
	"disk.FaultDisk.ArmRot":            "test plumbing: fault injection (bit rot on read)",
	"disk.FaultDisk.DisarmRot":         "test plumbing: fault injection (bit rot off)",
	"disk.FaultDisk.Inner":             "test plumbing: fault injection (the device reopened after the power failure)",
	"disk.FaultDisk.RotBits":           "test plumbing: fault injection (a one-shot dose of bit rot)",
	"disk.FaultDisk.SetFlipSeed":       "test plumbing: fault injection (reproducible bit flips)",
	"disk.FaultDisk.Tripped":           "test plumbing: fault injection (whether the crash point fired)",
	"disk.FaultDisk.WriteBounds":       "test plumbing: fault injection (the write boundaries crash points are drawn from)",
	"disk.FaultDisk.BytesWritten":      "test plumbing: fault injection (the bytes a clean run writes: the range crash points are drawn from)",
	"disk.FaultDisk.Flushes":           "test plumbing: fault injection (the flushes crash points are drawn from)",
	"disk.FaultMode.String":            "test plumbing: names the fault mode in the crash matrix's failures",
}

// fset and stdlib are shared by every scan: the standard library is
// type-checked from source once per test binary.
var (
	fset   = token.NewFileSet()
	stdlib = importer.ForCompiler(fset, "source", nil)
)

// module is the non-test code of one Go module, type-checked.
type module struct {
	path, root string
	pkgs       map[string]*types.Package // by import path
	files      []*ast.File
	info       *types.Info
}

// loadModule type-checks every package under root that has non-test Go
// files, skipping testdata and dot directories.
func loadModule(root, modPath string) (*module, error) {
	m := &module{path: modPath, root: root, pkgs: map[string]*types.Package{}, info: &types.Info{
		Types:      map[ast.Expr]types.TypeAndValue{},
		Defs:       map[*ast.Ident]types.Object{},
		Uses:       map[*ast.Ident]types.Object{},
		Selections: map[*ast.SelectorExpr]*types.Selection{},
	}}
	err := filepath.Walk(root, func(file string, info os.FileInfo, err error) error {
		if err != nil || !info.IsDir() {
			return err
		}
		if file != root && (strings.HasPrefix(info.Name(), ".") || info.Name() == "testdata") {
			return filepath.SkipDir
		}
		if _, err := build.ImportDir(file, 0); err != nil {
			if _, ok := err.(*build.NoGoError); ok {
				return nil
			}
			return err
		}
		rel, _ := filepath.Rel(root, file)
		_, err = m.Import(path.Join(modPath, filepath.ToSlash(rel)))
		return err
	})
	return m, err
}

// Import makes module a types.Importer: the module's own packages are
// checked from their directories, everything else comes from the standard
// library's source.
func (m *module) Import(p string) (*types.Package, error) {
	if p != m.path && !strings.HasPrefix(p, m.path+"/") {
		return stdlib.Import(p)
	}
	if pkg := m.pkgs[p]; pkg != nil {
		return pkg, nil
	}
	dir := filepath.Join(m.root, filepath.FromSlash(strings.TrimPrefix(p, m.path)))
	bp, err := build.ImportDir(dir, 0)
	if err != nil {
		return nil, err
	}
	var files []*ast.File
	for _, name := range bp.GoFiles {
		f, err := parser.ParseFile(fset, filepath.Join(dir, name), nil, parser.SkipObjectResolution)
		if err != nil {
			return nil, err
		}
		files = append(files, f)
	}
	conf := types.Config{Importer: m}
	pkg, err := conf.Check(p, fset, files, m.info)
	if err != nil {
		return nil, err
	}
	m.pkgs[p] = pkg
	m.files = append(m.files, files...)
	return pkg, nil
}

// unused returns every exported function, method, struct field, constant and
// variable of the module's internal/ packages that its code does not use,
// named pkg.Name, pkg.Type.Method or pkg.Type.Field (pkg relative to
// internal/).
//
// A function, constant or variable is used when code names it.  A field is
// used when code reads it: the target of an assignment, ++, -- or a composite
// literal key is not a read, and a promoted selection reads the embedded
// fields it passes through.  A method is used when code calls (or names) it,
// or converts a value of its type to an interface whose method is used; the
// methods of an interface declared outside the module count as used, since
// their callers are in the standard library.
func (m *module) unused() map[string]bool {
	exports := map[types.Object]string{}
	for p, pkg := range m.pkgs {
		rel, ok := strings.CutPrefix(p, m.path+"/internal/")
		if !ok {
			continue
		}
		scope := pkg.Scope()
		for _, name := range scope.Names() {
			switch obj := scope.Lookup(name).(type) {
			case *types.Func, *types.Const, *types.Var:
				if obj.Exported() {
					exports[obj] = rel + "." + name
				}
			case *types.TypeName:
				named, ok := obj.Type().(*types.Named)
				if !ok {
					continue
				}
				for i := 0; i < named.NumMethods(); i++ {
					if fn := named.Method(i); fn.Exported() {
						exports[fn] = rel + "." + name + "." + fn.Name()
					}
				}
				switch u := named.Underlying().(type) {
				case *types.Interface:
					for i := 0; i < u.NumExplicitMethods(); i++ {
						if fn := u.ExplicitMethod(i); fn.Exported() {
							exports[fn] = rel + "." + name + "." + fn.Name()
						}
					}
				case *types.Struct:
					addFields(exports, u, rel+"."+name)
				}
			}
		}
	}

	u := m.uses()
	out := map[string]bool{}
	for obj, name := range exports {
		if v, ok := obj.(*types.Var); ok && v.IsField() {
			if !u.read[v] {
				out[name] = true
			}
		} else if !u.used[obj] {
			out[name] = true
		}
	}
	return out
}

// addFields names the exported fields of st, and of the struct types
// written inline in it, under prefix.
func addFields(exports map[types.Object]string, st *types.Struct, prefix string) {
	for i := 0; i < st.NumFields(); i++ {
		f := st.Field(i)
		if !f.Exported() {
			continue
		}
		exports[f] = prefix + "." + f.Name()
		if inner, ok := f.Type().(*types.Struct); ok {
			addFields(exports, inner, prefix+"."+f.Name())
		}
	}
}

// uses is what the module's code uses: every object it names (less the
// fields it only writes), the fields it reads, and the edges from an
// interface method to the methods a conversion to that interface lets it
// reach.
type uses struct {
	mod   string // the module's path
	used  map[types.Object]bool
	read  map[*types.Var]bool
	edges map[*types.Func][]impl
}

// impl is a method an interface method reaches, and the embedded fields a
// call through the interface reads on the way.
type impl struct {
	fn  *types.Func
	via []*types.Var
}

func (m *module) uses() *uses {
	u := &uses{mod: m.path, used: map[types.Object]bool{}, read: map[*types.Var]bool{}, edges: map[*types.Func][]impl{}}
	written := map[*ast.Ident]bool{} // field selectors and keys that are written, not read
	for _, f := range m.files {
		var stack []ast.Node
		ast.Inspect(f, func(n ast.Node) bool {
			if n == nil {
				stack = stack[:len(stack)-1]
				return true
			}
			stack = append(stack, n)
			m.visit(u, n, stack, written)
			return true
		})
	}
	for id, obj := range m.info.Uses {
		switch obj := obj.(type) {
		case *types.Var:
			if obj.IsField() {
				if !written[id] {
					u.read[obj.Origin()] = true
				}
				continue
			}
			u.used[obj.Origin()] = true
		case *types.Func:
			u.used[obj.Origin()] = true
		default:
			u.used[obj] = true
		}
	}
	for _, s := range m.info.Selections {
		idx := s.Index()
		for _, f := range embedded(s.Recv(), idx[:len(idx)-1]) {
			u.read[f] = true
		}
	}
	// Follow the conversions: a used interface method uses every method a
	// conversion to its interface reaches.
	var work []*types.Func
	for obj := range u.used {
		if fn, ok := obj.(*types.Func); ok {
			work = append(work, fn)
		}
	}
	for len(work) > 0 {
		fn := work[len(work)-1]
		work = work[:len(work)-1]
		for _, im := range u.edges[fn] {
			for _, f := range im.via {
				u.read[f] = true
			}
			if !u.used[im.fn] {
				u.used[im.fn] = true
				work = append(work, im.fn)
			}
		}
	}
	return u
}

// embedded returns the embedded fields an index path walks from t.
func embedded(t types.Type, idx []int) []*types.Var {
	var out []*types.Var
	for _, i := range idx {
		if p, ok := t.Underlying().(*types.Pointer); ok {
			t = p.Elem()
		}
		st, ok := t.Underlying().(*types.Struct)
		if !ok {
			break
		}
		f := st.Field(i)
		out = append(out, f.Origin())
		t = f.Type()
	}
	return out
}

// visit records what one node writes and converts.
func (m *module) visit(u *uses, n ast.Node, stack []ast.Node, written map[*ast.Ident]bool) {
	typeOf := func(e ast.Expr) types.Type { return m.info.Types[e].Type }
	writes := func(e ast.Expr) {
		if s, ok := ast.Unparen(e).(*ast.SelectorExpr); ok {
			written[s.Sel] = true
		}
	}
	// values lists the types of exprs; a lone multi-value call spreads
	// over its results.
	values := func(exprs []ast.Expr) []types.Type {
		if len(exprs) == 1 {
			if tup, ok := typeOf(exprs[0]).(*types.Tuple); ok {
				out := make([]types.Type, tup.Len())
				for i := range out {
					out[i] = tup.At(i).Type()
				}
				return out
			}
		}
		out := make([]types.Type, len(exprs))
		for i, e := range exprs {
			out[i] = typeOf(e)
		}
		return out
	}
	// assign records the conversions of values to the types they are
	// assigned to.
	assign := func(to []types.Type, from []ast.Expr) {
		for i, t := range values(from) {
			if i < len(to) {
				u.convert(t, to[i])
			}
		}
	}
	switch n := n.(type) {
	case *ast.AssignStmt:
		for _, e := range n.Lhs {
			if n.Tok != token.DEFINE {
				writes(e)
			}
		}
		if n.Tok == token.ASSIGN {
			var to []types.Type
			for _, e := range n.Lhs {
				to = append(to, typeOf(e))
			}
			assign(to, n.Rhs)
		}
	case *ast.IncDecStmt:
		writes(n.X)
	case *ast.ValueSpec:
		if n.Type != nil {
			to := make([]types.Type, len(n.Names))
			for i := range to {
				to[i] = typeOf(n.Type)
			}
			assign(to, n.Values)
		}
	case *ast.ReturnStmt:
		for i := len(stack) - 1; i >= 0; i-- {
			var sig *types.Signature
			switch fn := stack[i].(type) {
			case *ast.FuncDecl:
				sig = m.info.Defs[fn.Name].Type().(*types.Signature)
			case *ast.FuncLit:
				sig = typeOf(fn).(*types.Signature)
			default:
				continue
			}
			var to []types.Type
			for j := 0; j < sig.Results().Len(); j++ {
				to = append(to, sig.Results().At(j).Type())
			}
			assign(to, n.Results)
			break
		}
	case *ast.CallExpr:
		fun := m.info.Types[n.Fun]
		switch {
		case fun.IsType():
			if len(n.Args) == 1 {
				u.convert(typeOf(n.Args[0]), fun.Type)
			}
		case fun.IsBuiltin():
			if id, ok := ast.Unparen(n.Fun).(*ast.Ident); ok && id.Name == "append" && !n.Ellipsis.IsValid() && len(n.Args) > 0 {
				if s, ok := typeOf(n.Args[0]).Underlying().(*types.Slice); ok {
					for _, a := range n.Args[1:] {
						u.convert(typeOf(a), s.Elem())
					}
				}
			}
		default:
			sig, ok := fun.Type.Underlying().(*types.Signature)
			if !ok {
				return
			}
			params := sig.Params()
			var to []types.Type
			for i := 0; i < params.Len(); i++ {
				to = append(to, params.At(i).Type())
			}
			if sig.Variadic() && !n.Ellipsis.IsValid() {
				elem := to[len(to)-1].(*types.Slice).Elem()
				to = to[:len(to)-1]
				for len(to) < len(values(n.Args)) {
					to = append(to, elem)
				}
			}
			assign(to, n.Args)
		}
	case *ast.CompositeLit:
		t := typeOf(n)
		if t == nil {
			return
		}
		if p, ok := t.Underlying().(*types.Pointer); ok {
			t = p.Elem()
		}
		for i, e := range n.Elts {
			kv, keyed := e.(*ast.KeyValueExpr)
			switch ut := t.Underlying().(type) {
			case *types.Struct:
				if keyed {
					id := kv.Key.(*ast.Ident)
					written[id] = true
					if f, ok := m.info.Uses[id].(*types.Var); ok {
						u.convert(typeOf(kv.Value), f.Type())
					}
				} else if i < ut.NumFields() {
					u.convert(typeOf(e), ut.Field(i).Type())
				}
			case *types.Map:
				if keyed {
					u.convert(typeOf(kv.Key), ut.Key())
					u.convert(typeOf(kv.Value), ut.Elem())
				}
			case *types.Slice, *types.Array:
				if keyed {
					e = kv.Value
				}
				u.convert(typeOf(e), ut.(interface{ Elem() types.Type }).Elem())
			}
		}
	case *ast.SendStmt:
		if c, ok := typeOf(n.Chan).Underlying().(*types.Chan); ok {
			u.convert(typeOf(n.Value), c.Elem())
		}
	case *ast.IndexExpr:
		if mt, ok := typeOf(n.X).Underlying().(*types.Map); ok {
			u.convert(typeOf(n.Index), mt.Key())
		}
	}
}

// convert records that a value of type from becomes an interface of type to:
// each of the interface's methods then reaches from's method of that name.
func (u *uses) convert(from, to types.Type) {
	if from == nil || to == nil || types.Identical(from, to) {
		return
	}
	iface, ok := to.Underlying().(*types.Interface)
	if !ok {
		return
	}
	if iface.Empty() {
		iface = printed
	}
	for i := 0; i < iface.NumMethods(); i++ {
		im := iface.Method(i)
		obj, idx, _ := types.LookupFieldOrMethod(from, true, im.Pkg(), im.Name())
		fn, ok := obj.(*types.Func)
		if !ok {
			continue
		}
		u.edges[im] = append(u.edges[im], impl{fn: fn.Origin(), via: embedded(from, idx[:len(idx)-1])})
		if im.Pkg() == nil || !strings.HasPrefix(im.Pkg().Path()+"/", u.mod+"/") {
			u.used[im] = true
		}
	}
}

// printed stands for an empty interface in a conversion: fmt calls String
// and Error on the values it is handed as any.
var printed = func() *types.Interface {
	str := types.NewTuple(types.NewVar(token.NoPos, nil, "", types.Typ[types.String]))
	var ms []*types.Func
	for _, name := range []string{"String", "Error"} {
		ms = append(ms, types.NewFunc(token.NoPos, nil, name, types.NewSignatureType(nil, nil, nil, nil, str, false)))
	}
	return types.NewInterfaceType(ms, nil).Complete()
}()

// TestInternalSurfaceIsReferenced type-checks every non-test package of the
// module and fails unless the exported names of internal/ that nothing uses
// are exactly the keep-list.
func TestInternalSurfaceIsReferenced(t *testing.T) {
	m, err := loadModule(filepath.Join("..", ".."), modulePath)
	if err != nil {
		t.Fatal(err)
	}
	unused := m.unused()
	var errs []string
	for name := range unused {
		if keep[name] == "" {
			errs = append(errs, name+" is exported, used by no non-test code and has no reason in keep")
		}
	}
	for name := range keep {
		if !unused[name] {
			errs = append(errs, "keep lists "+name+", which is used or gone: drop the entry")
		}
	}
	sort.Strings(errs)
	for _, e := range errs {
		t.Error(e)
	}
}

// TestSurfaceGateFixture runs the gate on testdata/surface, a module whose
// comments say what the gate must flag and what it must count.
func TestSurfaceGateFixture(t *testing.T) {
	m, err := loadModule(filepath.Join("testdata", "surface"), "fixture")
	if err != nil {
		t.Fatal(err)
	}
	var got []string
	for name := range m.unused() {
		got = append(got, name)
	}
	sort.Strings(got)
	want := []string{"lib.Counters.Dirty", "lib.Registry.Title", "lib.Store.Unreached", "lib.Unused"}
	if !slices.Equal(got, want) {
		t.Errorf("the gate flags %v, want %v", got, want)
	}
}
