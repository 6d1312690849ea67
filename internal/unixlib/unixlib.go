// Package unixlib is the HiStar user-level Unix emulation library
// (Section 5).  Everything here — the file system, processes, file
// descriptors, fork/exec/spawn, signals, pipes, users, and mount tables — is
// built purely on the kernel interface of package kernel, with no special
// privilege: it corresponds to the ~10,000-line library the paper layers
// under uClibc.  A vulnerability in this code compromises only the threads
// that trigger it, never the kernel's information-flow guarantees.
//
// Persistence is the kernel's: Boot hands BootOptions.Persist to
// Kernel.SetPager and the library never calls the store.  What it may ask is
// what any thread may — mark a segment it can modify persistent where it
// creates one (markPersistent, fs.go), fsync it as a ring of OpSync entries,
// sync the whole system (syncFiles, ringio.go) — each call checked by the
// kernel against the calling thread's label; which bytes changed, what to
// page in before a read and what to delete when an object dies the kernel
// knows for itself.
package unixlib

import (
	"fmt"
	"sync"
	"sync/atomic"

	"histar/internal/kernel"
	"histar/internal/label"
	"histar/internal/store"
)

// Program is a registered "executable": the Go function run when a process
// execs the corresponding file.  It returns the process's exit status.
type Program func(p *Process, args []string) int

// User is a Unix user account: a pair of unique categories defining the
// user's read and write privileges (Section 5.4).  Root is just another
// user.
type User struct {
	Name string
	Ur   label.Category // read privilege
	Uw   label.Category // write privilege
}

// System is one booted HiStar machine with its Unix environment: the kernel
// (which owns the single-level store, if there is one), the root directory,
// registered programs, and user accounts.  There is no system-wide lock:
// the program and user tables are read-mostly behind their own RWMutexes,
// PIDs come from an atomic counter, and directory-segment lookups hit a
// sharded cache, so concurrent processes contend only on the kernel objects
// they actually share.
type System struct {
	Kern *kernel.Kernel
	// evictCache drops the store's clean cached contents (EvictFileCache).
	// It is all the library keeps of the store Boot hands to the kernel, and
	// nil on a machine booted without one, where nothing is marked
	// persistent and a sync is a no-op.
	evictCache func()

	// RootDir is the container serving as the file system root "/".
	RootDir kernel.ID

	progMu   sync.RWMutex
	programs map[string]Program

	userMu sync.RWMutex
	users  map[string]*User
	// initMu makes the bootstrap thread one sequence of calls wherever its
	// label changes: whole AddUser calls (account creation mints categories
	// and a labeled home directory before the name is registered, and two
	// racing creators must not each mint their own — userMu alone only
	// protects the map) and NewInitProcess's allocate … shed (see the
	// lifetime protocol in process.go).
	initMu sync.Mutex

	nextPID atomic.Int64

	// dirSegs caches directory container → directory segment bindings,
	// sharded by container-ID bits.  A binding is written once when the
	// directory is created and never changes (kernel IDs are never reused),
	// so cached entries need no invalidation: a deleted directory's entry
	// just resolves to a kernel lookup failure, as the uncached path would.
	dirSegs [dirSegShards]dirSegShard

	// initTC is the bootstrap thread that owns all users' categories — and
	// nothing else: it sheds each process's categories as it finishes building
	// it.  The authentication service (package auth) takes over this role in
	// the full login flow.
	initTC *kernel.ThreadCall
}

// dirSegShards is the size of the directory-segment cache's shard array.
const dirSegShards = 16

type dirSegShard struct {
	mu sync.RWMutex
	m  map[kernel.ID]kernel.ID
}

// BootOptions configure Boot.
type BootOptions struct {
	// Persist attaches a single-level store to the kernel, which pages file
	// and directory segments to it, so fsync and checkpoint have their paper
	// semantics.
	Persist *store.Store
	// KernelConfig is passed through to kernel.New.
	KernelConfig kernel.Config
}

// Boot creates a kernel, the root directory hierarchy (/, /tmp, /bin, /etc,
// /home), and the init process, and returns the running system.
func Boot(opts BootOptions) (*System, error) {
	k := kernel.New(opts.KernelConfig)
	sys := &System{
		Kern:     k,
		programs: make(map[string]Program),
		users:    make(map[string]*User),
	}
	for i := range sys.dirSegs {
		sys.dirSegs[i].m = make(map[kernel.ID]kernel.ID)
	}
	if st := opts.Persist; st != nil {
		k.SetPager(st)
		sys.evictCache = st.EvictCache
	}
	tc, err := k.BootThread(label.New(label.L1), label.New(label.L2), "unixlib init")
	if err != nil {
		return nil, err
	}
	sys.initTC = tc

	// "/" is a container directly under the kernel root container.
	rootDir, err := sys.mkDirContainer(tc, k.RootContainer(), "/", label.New(label.L1))
	if err != nil {
		return nil, fmt.Errorf("creating /: %w", err)
	}
	sys.RootDir = rootDir
	for _, d := range []string{"tmp", "bin", "etc", "home", "dev"} {
		if _, err := sys.mkdirIn(tc, rootDir, d, label.New(label.L1)); err != nil {
			return nil, fmt.Errorf("creating /%s: %w", d, err)
		}
	}
	return sys, nil
}

// InitThread returns the bootstrap thread's syscall context.  It is used by
// the trusted setup code in examples and tests (the role the machine
// administrator's console plays on a real system).
func (sys *System) InitThread() *kernel.ThreadCall { return sys.initTC }

// EvictFileCache drops clean objects from the store's cache so subsequent
// reads hit the simulated disk (benchmark plumbing for the uncached phases).
func (sys *System) EvictFileCache() {
	if sys.evictCache != nil {
		sys.evictCache()
	}
}

// RegisterProgram makes a program available under the given path, creating
// the corresponding file in the file system (its contents are the program
// name, standing in for the executable's bytes).
func (sys *System) RegisterProgram(path string, prog Program) error {
	sys.progMu.Lock()
	sys.programs[path] = prog
	sys.progMu.Unlock()
	// Materialize the "binary" so exec can stat it and so the file system
	// behaves like a real /bin.
	p, err := sys.NewInitProcess("root")
	if err != nil {
		return err
	}
	defer p.ExitQuietly()
	fd, err := p.Create(path, label.New(label.L1))
	if err != nil {
		if err == ErrExist {
			return nil
		}
		return err
	}
	if _, err := p.Write(fd, []byte(path)); err != nil {
		return err
	}
	return p.Close(fd)
}

// LookupProgram resolves a registered program by path.
func (sys *System) LookupProgram(path string) (Program, bool) {
	sys.progMu.RLock()
	defer sys.progMu.RUnlock()
	prog, ok := sys.programs[path]
	return prog, ok
}

// AddUser creates a user account: a fresh ur/uw category pair and a home
// directory /home/<name> labeled {ur3, uw0, 1}.
func (sys *System) AddUser(name string) (*User, error) {
	sys.initMu.Lock()
	defer sys.initMu.Unlock()
	sys.userMu.RLock()
	_, exists := sys.users[name]
	sys.userMu.RUnlock()
	if exists {
		return nil, ErrExist
	}

	ur, err := sys.initTC.CategoryCreateNamed(name + "r")
	if err != nil {
		return nil, err
	}
	uw, err := sys.initTC.CategoryCreateNamed(name + "w")
	if err != nil {
		return nil, err
	}
	u := &User{Name: name, Ur: ur, Uw: uw}

	// Home directory readable/writable only by the user.
	homeLabel := label.New(label.L1, label.P(ur, label.L3), label.P(uw, label.L0))
	home, err := sys.lookupDir(sys.initTC, "/home")
	if err != nil {
		return nil, err
	}
	if _, err := sys.mkdirIn(sys.initTC, home, name, homeLabel); err != nil && err != ErrExist {
		return nil, err
	}

	sys.userMu.Lock()
	sys.users[name] = u
	sys.userMu.Unlock()
	return u, nil
}

// LookupUser returns the account record for name.
func (sys *System) LookupUser(name string) (*User, bool) {
	sys.userMu.RLock()
	defer sys.userMu.RUnlock()
	u, ok := sys.users[name]
	return u, ok
}

func (sys *System) allocPID() int {
	return int(sys.nextPID.Add(1))
}

// lookupDir resolves an absolute path to a directory container using the
// init thread (bootstrap-only plumbing; processes use their own resolution).
func (sys *System) lookupDir(tc *kernel.ThreadCall, path string) (kernel.ID, error) {
	_, _, entry, err := sys.resolve(tc, sys.RootDir, path, nil)
	if err != nil {
		return kernel.NilID, err
	}
	if entry == nil {
		return kernel.NilID, ErrNotExist
	}
	if entry.Type != kernel.ObjContainer {
		return kernel.NilID, ErrNotDir
	}
	return entry.ID, nil
}
