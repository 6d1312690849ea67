package unixlib

import (
	"encoding/binary"
	"fmt"
	"sync"

	"histar/internal/kernel"
	"histar/internal/label"
)

// A process in HiStar is a user-space convention (Section 5.2, Figure 6):
// two categories pr and pw protect its secrecy and integrity; a process
// container exposes the external interface (signal gate, exit status
// segment) and an internal container holds the address space and private
// segments.  All of it is built by this untrusted library with only the
// invoking user's privileges.
//
// The lifetime protocol, which every way of making a process follows:
//
//  1. allocate: the creator's thread allocates pr and pw, so for the moment
//     it owns them (label pr⋆/pw⋆, clearance pr3/pw3);
//  2. build: with that ownership it creates the containers, exit segment,
//     address space, signal gate and memory segments at their {pr3, pw0, 1}
//     and {pw0, 1} labels (Fork also copies its image and links its
//     descriptors into the child here);
//  3. start thread: it creates the child's main thread with pr⋆/pw⋆, which
//     the kernel allows only a thread that owns them to hand over (the
//     program starts running on it once step 4 is done);
//  4. shed: it returns its own label and clearance to their defaults in pr
//     and pw.  From here on the creator is a stranger to the child: it cannot
//     read the internal container or write the process container, and its
//     label is what it was before step 1, so creating process i costs what
//     creating process 1 cost;
//  5. wait: it sleeps on the exit segment, which {pw0, 1} leaves readable;
//  6. reap: once the child's thread has halted it unrefs the process
//     container from the root container, which needs no privilege over the
//     child.
//
// Kill is the one later step that needs the child's categories; it gets them
// back through the signal gate for the length of the call.
//
// Steps 1–4 read and rewrite the creator's label, and the kernel validates
// self_set_label against the label as it is at that instant: a shed that
// raced another goroutine's allocation on the same thread would silently
// strip that goroutine's fresh stars.  One kernel thread is one sequence of
// calls, so each creator runs the steps under one lock: a Process under its
// own, and the bootstrap thread — which AddUser also grows — under
// System.initMu.

// Exit-status segment layout: word 0 is 1 once the process has exited, word
// 1 is the exit status.  Waiters block on a futex at offset 0.
const (
	exitFlagOff   = 0
	exitStatusOff = 8
	exitSegSize   = 16
)

// Process is one Unix-style process.
type Process struct {
	sys *System
	PID int

	// TC is the process's main thread.
	TC *kernel.ThreadCall
	// Pr and Pw are the process secrecy and integrity categories.
	Pr, Pw label.Category
	// ProcCt is the process container (externally readable), IntCt the
	// internal container (private to the process).
	ProcCt, IntCt kernel.ID
	// AS is the process's address space object.
	AS kernel.CEnt
	// ExitSeg is the exit status segment in the process container.
	ExitSeg kernel.CEnt
	// SignalGate delivers signals to the process (Section 5.6).
	SignalGate kernel.CEnt
	// User is the account whose privileges the process runs with (may be
	// nil for daemon-style processes).
	User *User

	// No process-wide lock: the descriptor table has its own read-mostly
	// RWMutex (per-descriptor state is additionally guarded by the FD's
	// shared seek lock), the mount table locks itself, and the remaining
	// mutable scraps (cwd, exit flag, signal handlers) sit behind two small
	// leaf mutexes.
	fdMu     sync.RWMutex
	fds      map[int]*FD
	mu       sync.Mutex // cwd, exited
	cwd      string
	exited   bool
	mounts   *MountTable
	sigMu    sync.Mutex
	handlers map[int]func(sig int)
	// halted is closed when Exit has made its last system call.
	halted chan struct{}
	// labelMu serialises the sequences that grow TC's label and shrink it
	// again: creating a child (allocate … shed) and Kill.
	labelMu sync.Mutex
}

// Cwd returns the current working directory path.
func (p *Process) Cwd() string {
	p.mu.Lock()
	defer p.mu.Unlock()
	return p.cwd
}

// Chdir changes the working directory.
func (p *Process) Chdir(path string) error {
	_, _, entry, err := p.lookup(path)
	if err != nil {
		return err
	}
	if entry == nil || entry.Type != kernel.ObjContainer {
		return ErrNotDir
	}
	p.mu.Lock()
	p.cwd = cleanPath(path)
	p.mu.Unlock()
	return nil
}

// Mounts returns the process's mount table.
func (p *Process) Mounts() *MountTable { return p.mounts }

func (p *Process) abs(path string) string {
	if len(path) > 0 && path[0] == '/' {
		return path
	}
	cwd := p.Cwd()
	if cwd == "/" {
		return "/" + path
	}
	return cwd + "/" + path
}

// NewInitProcess builds a fully privileged process for the named user (the
// equivalent of what login produces after successful authentication).  It is
// also the hook trusted bootstrap code uses to run daemons.
func (sys *System) NewInitProcess(userName string) (*Process, error) {
	var u *User
	if userName != "" {
		if existing, ok := sys.LookupUser(userName); ok {
			u = existing
		} else {
			created, err := sys.AddUser(userName)
			if err != nil && err != ErrExist {
				return nil, err
			}
			if err == nil {
				u = created
			} else {
				u, _ = sys.LookupUser(userName)
			}
		}
	}
	return sys.create(&sys.initMu, sys.initTC, u, "/", nil, nil, nil)
}

// create runs steps 1–4 of the lifetime protocol on creator, under the
// creator's lock mu: it allocates pr and pw, builds the process for user u
// (tainted, and stripped of u's privileges, when taint is non-nil), lets
// finish do whatever else needs the new categories, and sheds them from
// creator whatever the outcome.  A process that could not be finished is
// unlinked again, so a failed creation leaves neither objects nor categories
// behind.
func (sys *System) create(mu *sync.Mutex, creator *kernel.ThreadCall, u *User, cwd string, mounts *MountTable, taint []label.Pair, finish func(child *Process) error) (*Process, error) {
	mu.Lock()
	defer mu.Unlock()
	pr, err := creator.CategoryCreateNamed("pr")
	if err != nil {
		return nil, mapKernelErr(err)
	}
	pw, err := creator.CategoryCreateNamed("pw")
	if err != nil {
		return nil, mapKernelErr(err)
	}
	if mounts == nil {
		mounts = NewMountTable()
	}
	if len(taint) > 0 {
		u = nil
	}
	p := &Process{
		sys:      sys,
		PID:      sys.allocPID(),
		Pr:       pr,
		Pw:       pw,
		User:     u,
		fds:      make(map[int]*FD),
		cwd:      cleanPath(cwd),
		mounts:   mounts,
		handlers: make(map[int]func(int)),
		halted:   make(chan struct{}),
	}
	err = p.build(creator, taint)
	if err == nil && finish != nil {
		err = finish(p)
	}
	if serr := shed(creator, pr, pw); err == nil {
		err = serr
	}
	if err != nil {
		if p.ProcCt != kernel.NilID {
			_ = creator.Unref(sys.Kern.RootContainer(), p.ProcCt)
		}
		return nil, err
	}
	return p, nil
}

// shed returns tc's label and clearance to their defaults in pr and pw.
func shed(tc *kernel.ThreadCall, pr, pw label.Category) error {
	lbl, err := tc.SelfLabel()
	if err != nil {
		return mapKernelErr(err)
	}
	if err := tc.SelfSetLabel(lbl.Without(pr).Without(pw)); err != nil {
		return mapKernelErr(err)
	}
	clr, err := tc.SelfClearance()
	if err != nil {
		return mapKernelErr(err)
	}
	return mapKernelErr(tc.SelfSetClearance(clr.Without(pr).Without(pw)))
}

// build creates the kernel objects of Figure 6 for p on behalf of creator,
// which owns p.Pr and p.Pw.  taint additionally taints the process in the
// given categories (both its thread label and every process object), which
// is how wrap launches the virus scanner tainted v3 (Section 6.1).
func (p *Process) build(creator *kernel.ThreadCall, taint []label.Pair) error {
	sys, pr, pw, u := p.sys, p.Pr, p.Pw, p.User
	withTaint := func(l label.Label) label.Label {
		for _, t := range taint {
			l = l.With(t.Category, t.Level)
		}
		return l
	}
	// Process container: {pw0, 1} — readable by others, writable only with
	// pw — plus any taint, so the tainted process can still manage itself.
	procLbl := withTaint(label.New(label.L1, label.P(pw, label.L0)))
	procCt, err := creator.ContainerCreate(sys.Kern.RootContainer(), procLbl, "process container", 0, kernel.QuotaInfinite)
	if err != nil {
		return mapKernelErr(err)
	}
	p.ProcCt = procCt
	// Internal container: {pr3, pw0, 1} — private to the process.
	intLbl := withTaint(label.New(label.L1, label.P(pr, label.L3), label.P(pw, label.L0)))
	intCt, err := creator.ContainerCreate(procCt, intLbl, "internal container", 0, kernel.QuotaInfinite)
	if err != nil {
		return mapKernelErr(err)
	}
	p.IntCt = intCt
	// Exit status segment: {pw0, 1} (+ taint).
	exitSeg, err := creator.SegmentCreate(procCt, procLbl, "exit status", exitSegSize)
	if err != nil {
		return mapKernelErr(err)
	}
	p.ExitSeg = kernel.CEnt{Container: procCt, Object: exitSeg}
	// Address space: {pr3, pw0, 1} (+ taint).
	as, err := creator.AddressSpaceCreate(intCt, intLbl, "process AS")
	if err != nil {
		return mapKernelErr(err)
	}
	p.AS = kernel.CEnt{Container: intCt, Object: as}
	// Thread label: the process categories plus the user's privileges (for
	// an untainted process) or the taint levels (for a tainted one).
	thrLbl := label.New(label.L1, label.P(pr, label.Star), label.P(pw, label.Star))
	thrClr := label.New(label.L2, label.P(pr, label.L3), label.P(pw, label.L3))
	if u != nil {
		thrLbl = thrLbl.With(u.Ur, label.Star).With(u.Uw, label.Star)
		thrClr = thrClr.With(u.Ur, label.L3).With(u.Uw, label.L3)
	}
	for _, t := range taint {
		thrLbl = thrLbl.With(t.Category, t.Level)
		lvl := t.Level
		if lvl < label.L3 {
			lvl = label.L3
		}
		thrClr = thrClr.With(t.Category, lvl)
	}
	// The creator must own pr/pw (it allocated them) and the user categories
	// (init or login does); thread creation enforces LT ⊑ LT'.
	tid, err := creator.ThreadCreate(procCt, kernel.ThreadSpec{
		Label:        thrLbl,
		Clearance:    thrClr,
		AddressSpace: p.AS,
		Descrip:      "process main thread",
	})
	if err != nil {
		return mapKernelErr(err)
	}
	if p.TC, err = sys.Kern.ThreadCall(tid); err != nil {
		return mapKernelErr(err)
	}
	if err := p.createSignalGate(creator); err != nil {
		return err
	}
	// Conventional stack, heap and text segments inside the internal
	// container, mapped into the address space (they carry no file contents
	// in this simulation but reproduce the object and syscall structure).
	return p.setupMemorySegments(creator, intLbl)
}

// NewThread creates an additional thread in the process, sharing its address
// space and starting with the process's current label and clearance.  This is
// how a multi-threaded daemon — the webd demultiplexer's lanes, Section 6.4 —
// gets per-lane syscall contexts (each with its own ring) without new
// processes.  The caller drives the returned ThreadCall from its own
// goroutine; the thread is not scheduled independently in this simulation.
func (p *Process) NewThread(descrip string) (*kernel.ThreadCall, error) {
	lbl, err := p.TC.SelfLabel()
	if err != nil {
		return nil, mapKernelErr(err)
	}
	clr, err := p.TC.SelfClearance()
	if err != nil {
		return nil, mapKernelErr(err)
	}
	tid, err := p.TC.ThreadCreate(p.ProcCt, kernel.ThreadSpec{
		Label:        lbl,
		Clearance:    clr,
		AddressSpace: p.AS,
		Descrip:      descrip,
	})
	if err != nil {
		return nil, mapKernelErr(err)
	}
	tc, err := p.sys.Kern.ThreadCall(tid)
	if err != nil {
		return nil, mapKernelErr(err)
	}
	return tc, nil
}

// createSignalGate exposes a gate in the process container whose entry sends
// an alert to the process's main thread (Section 5.6).  Its clearance is
// {uw0, 2} so only threads with the owning user's privilege can signal.
func (p *Process) createSignalGate(creator *kernel.ThreadCall) error {
	// Callers need clearance in pr/pw to request the gate's ownership of
	// them across the call; the uw0 entry restricts who may call at all.
	clearance := label.New(label.L2,
		label.P(p.Pr, label.L3), label.P(p.Pw, label.L3))
	if p.User != nil {
		clearance = clearance.With(p.User.Uw, label.L0)
	}
	gateLbl := label.New(label.L1, label.P(p.Pr, label.Star), label.P(p.Pw, label.Star))
	target := p.TC
	gid, err := creator.GateCreate(p.ProcCt, kernel.GateSpec{
		Label:     gateLbl,
		Clearance: clearance,
		Descrip:   "signal gate",
		Entry: func(call *kernel.GateCallCtx) []byte {
			if len(call.Args) < 8 {
				return []byte("bad signal")
			}
			sig := binary.LittleEndian.Uint64(call.Args)
			// Deliver the alert with the process's own privilege (the gate
			// carries pr⋆/pw⋆, so the entering thread can write the AS).
			if err := call.TC.ThreadAlert(kernel.CEnt{Container: p.ProcCt, Object: target.ID()}, sig); err != nil {
				return []byte("alert failed: " + err.Error())
			}
			return []byte("ok")
		},
	})
	if err != nil {
		return mapKernelErr(err)
	}
	p.SignalGate = kernel.CEnt{Container: p.ProcCt, Object: gid}
	return nil
}

// setupMemorySegments creates the conventional text/data/heap/stack segments
// and maps them into the process address space.
func (p *Process) setupMemorySegments(creator *kernel.ThreadCall, lbl label.Label) error {
	layout := []struct {
		name string
		va   uint64
		size int
	}{
		{"text", 0x400000, 4 * kernel.PageSize},
		{"data", 0x600000, 2 * kernel.PageSize},
		{"heap", 0x800000, 4 * kernel.PageSize},
		{"stack", 0x7ff000000000, 4 * kernel.PageSize},
	}
	for _, seg := range layout {
		id, err := creator.SegmentCreate(p.IntCt, lbl, seg.name, seg.size)
		if err != nil {
			return mapKernelErr(err)
		}
		err = creator.AddressSpaceAddMapping(p.AS, kernel.Mapping{
			VA:     seg.va,
			Seg:    kernel.CEnt{Container: p.IntCt, Object: id},
			NPages: uint64(seg.size / kernel.PageSize),
			Flags:  kernel.MapRead | kernel.MapWrite,
		})
		if err != nil {
			return mapKernelErr(err)
		}
	}
	// The thread-local segment mapping.
	return mapKernelErr(creator.AddressSpaceAddMapping(p.AS, kernel.Mapping{
		VA:     0x7fe000000000,
		NPages: 1,
		Flags:  kernel.MapRead | kernel.MapWrite | kernel.MapThreadLocal,
	}))
}

// child creates a process on p's main thread that inherits p's user, working
// directory and a copy of its mount table.
func (p *Process) child(taint []label.Pair, finish func(child *Process) error) (*Process, error) {
	return p.sys.create(&p.labelMu, p.TC, p.User, p.Cwd(), p.mounts.Clone(), taint, finish)
}

// NewChild builds a child process of p that runs no program of its own: the
// caller drives it through its TC or Run (webd's workers are driven by gate
// entries) and reaps it with Wait.  It is Spawn without the program.
func (p *Process) NewChild() (*Process, error) { return p.child(nil, nil) }

// Spawn starts the registered program at path in a freshly built process,
// without the intermediate fork: the more efficient primitive the
// lower-level kernel interface makes possible (Section 7.1).  The returned
// process is already running; use Wait to collect its exit status.
func (p *Process) Spawn(path string, args []string) (*Process, error) {
	prog, ok := p.sys.LookupProgram(p.abs(path))
	if !ok {
		return nil, ErrNoProgram
	}
	child, err := p.NewChild()
	if err != nil {
		return nil, err
	}
	// The child inherits the parent's standard descriptors by sharing the
	// descriptor segments (no copies; spawn passes them through).
	p.shareFDs(child, false)
	go child.run(prog, args)
	return child, nil
}

// SpawnTainted starts the registered program at path in a new process that
// is tainted with the given category/level pairs and carries none of the
// parent's user privileges.  This is how wrap launches the virus scanner
// tainted v3 (and ur3, so it can read the user's files without being able to
// modify them or talk to anything untainted).
func (p *Process) SpawnTainted(path string, args []string, taint []label.Pair) (*Process, error) {
	prog, ok := p.sys.LookupProgram(p.abs(path))
	if !ok {
		return nil, ErrNoProgram
	}
	child, err := p.child(taint, nil)
	if err != nil {
		return nil, err
	}
	go child.run(prog, args)
	return child, nil
}

// Fork creates a copy of the calling process: a new process whose address
// space, memory segments, and descriptor table are copies of the parent's.
// It issues far more system calls than Spawn — the effect the fork/exec
// microbenchmark measures.  The child is returned in a not-yet-running
// state; call Exec on it (or Run) to give it code.
func (p *Process) Fork() (*Process, error) {
	return p.child(nil, p.copyInto)
}

// copyInto is the part of Fork that needs the child's categories: it copies
// the parent's memory segments into the child's internal container and
// rebuilds the child's mappings, as the library's fork does by copying the
// address space object and its segments, then duplicates the descriptor
// table.
func (p *Process) copyInto(child *Process) error {
	maps, err := p.TC.AddressSpaceGet(p.AS)
	if err != nil {
		return mapKernelErr(err)
	}
	intLbl := label.New(label.L1, label.P(child.Pr, label.L3), label.P(child.Pw, label.L0))
	var newMaps []kernel.Mapping
	for _, m := range maps {
		if m.Flags&kernel.MapThreadLocal != 0 {
			newMaps = append(newMaps, m)
			continue
		}
		cp, err := p.TC.SegmentCopy(m.Seg, child.IntCt, intLbl, "fork copy")
		if err != nil {
			return mapKernelErr(err)
		}
		m.Seg = kernel.CEnt{Container: child.IntCt, Object: cp}
		newMaps = append(newMaps, m)
	}
	if err := p.TC.AddressSpaceSet(child.AS, newMaps); err != nil {
		return mapKernelErr(err)
	}
	// The child holds hard links to the shared descriptor segments so they
	// survive either process exiting.
	p.shareFDs(child, true)
	return nil
}

// shareFDs makes the parent's descriptors visible in the child.  When link
// is true the descriptor segments are hard linked into the child's process
// container (fork semantics: shared state kept alive by both processes).
// The child's FD structs are copies, but they share the parent's descriptor
// segment and seek lock, so seek state stays coherent across both processes.
func (p *Process) shareFDs(child *Process, link bool) {
	p.fdMu.RLock()
	fds := make(map[int]*FD, len(p.fds))
	for n, fd := range p.fds {
		fds[n] = fd
	}
	p.fdMu.RUnlock()
	for n, fd := range fds {
		nfd := *fd
		if link {
			_ = p.TC.ObjectSetFixedQuota(fd.Seg)
			_ = p.TC.Link(child.ProcCt, fd.Seg)
			if fd.Pipe != nil {
				_ = p.TC.ObjectSetFixedQuota(fd.Pipe.Seg)
				_ = p.TC.Link(child.ProcCt, fd.Pipe.Seg)
			}
		}
		child.fdMu.Lock()
		child.fds[n] = &nfd
		child.fdMu.Unlock()
	}
}

// Exec replaces the child's program with the registered binary at path and
// starts it.  Combined with Fork it reproduces the classic fork/exec pair
// (317 syscalls on the paper's measurement; likewise much more expensive
// than Spawn here).
func (p *Process) Exec(path string, args []string) error {
	prog, ok := p.sys.LookupProgram(p.abs(path)) // resolve via cwd
	if !ok {
		return ErrNoProgram
	}
	// Tear down the copied mappings and build a fresh text/data/heap/stack,
	// as exec discards the inherited image.
	maps, err := p.TC.AddressSpaceGet(p.AS)
	if err != nil {
		return mapKernelErr(err)
	}
	for _, m := range maps {
		if m.Flags&kernel.MapThreadLocal != 0 {
			continue
		}
		_ = p.TC.AddressSpaceRemoveMapping(p.AS, m.VA)
		_ = p.TC.Unref(m.Seg.Container, m.Seg.Object)
	}
	intLbl := label.New(label.L1, label.P(p.Pr, label.L3), label.P(p.Pw, label.L0))
	if err := p.setupMemorySegments(p.TC, intLbl); err != nil {
		return err
	}
	go p.run(prog, args)
	return nil
}

// Run executes fn as the body of this process on the calling goroutine and
// records its return value as the exit status.  It is how tests and examples
// drive a process without registering a named program.
func (p *Process) Run(fn Program, args []string) int {
	status := fn(p, args)
	p.Exit(status)
	return status
}

// run is the goroutine body for spawned/exec'd processes.
func (p *Process) run(prog Program, args []string) {
	status := prog(p, args)
	p.Exit(status)
}

// Exit records the exit status in the exit status segment, wakes waiters,
// and halts the process's main thread.  Information about the exit flows to
// whoever can read the process container — for tainted processes this is an
// explicit, user-level information leak performed via an untainting gate
// when the category owner created one (Section 5.8).
func (p *Process) Exit(status int) {
	p.mu.Lock()
	if p.exited {
		p.mu.Unlock()
		return
	}
	p.exited = true
	p.mu.Unlock()

	var buf [exitSegSize]byte
	binary.LittleEndian.PutUint64(buf[exitFlagOff:], 1)
	binary.LittleEndian.PutUint64(buf[exitStatusOff:], uint64(status))
	_ = p.TC.SegmentWrite(p.ExitSeg, 0, buf[:])
	_, _ = p.TC.FutexWake(p.ExitSeg, exitFlagOff, 64)
	_ = p.TC.ThreadHalt()
	close(p.halted)
}

// ExitQuietly is Exit(0) for helper processes whose status nobody collects.
func (p *Process) ExitQuietly() { p.Exit(0) }

// Wait blocks until child exits and returns its exit status: it sleeps on the
// exit status segment's futex (which returns at once when the flag is already
// set), reads the status, and reaps the child by dropping its process
// container.  None of it needs the child's categories.
//
// The reap waits for the child's main thread to have halted.  On hardware
// the halt is the thread's last instruction; here the child's program is a
// goroutine that may still be between the wake and the halt when the waiter
// sees the flag, and a container dropped under it would make the number of
// calls a wait costs depend on who won that race.  This way a wait is the
// same three calls, and an exit the same three, whatever the timing.
func (p *Process) Wait(child *Process) (int, error) {
	for {
		if err := p.TC.FutexWait(child.ExitSeg, exitFlagOff, 0); err != nil {
			return 0, mapKernelErr(err)
		}
		buf, err := p.TC.SegmentRead(child.ExitSeg, 0, exitSegSize)
		if err != nil {
			return 0, mapKernelErr(err)
		}
		if binary.LittleEndian.Uint64(buf[exitFlagOff:]) == 1 {
			<-child.halted
			_ = p.TC.Unref(p.sys.Kern.RootContainer(), child.ProcCt)
			return int(binary.LittleEndian.Uint64(buf[exitStatusOff:])), nil
		}
	}
}

// ---------------------------------------------------------------------------
// Signals (Section 5.6).
// ---------------------------------------------------------------------------

// Common signal numbers.
const (
	SIGKILL = 9
	SIGTERM = 15
	SIGUSR1 = 10
)

// Signal installs a handler for sig in this process.
func (p *Process) Signal(sig int, handler func(sig int)) {
	p.sigMu.Lock()
	defer p.sigMu.Unlock()
	p.handlers[sig] = handler
}

// Kill sends a signal to target by invoking its signal gate.  The gate's
// clearance ({uw0, 2}) means only threads with the target user's privilege
// may signal the target's processes.  The caller temporarily acquires the
// target's pr/pw ownership through the gate (the gate entry needs it to
// write the target's address space) and drops it again before returning, as
// the library's gate-call convention does with a return gate.
func (p *Process) Kill(target *Process, sig int) error {
	p.labelMu.Lock()
	defer p.labelMu.Unlock()
	lbl, err := p.TC.SelfLabel()
	if err != nil {
		return mapKernelErr(err)
	}
	clr, err := p.TC.SelfClearance()
	if err != nil {
		return mapKernelErr(err)
	}
	reqLbl := lbl.With(target.Pr, label.Star).With(target.Pw, label.Star)
	reqClr := clr.With(target.Pr, label.L3).With(target.Pw, label.L3)
	var args [8]byte
	binary.LittleEndian.PutUint64(args[:], uint64(sig))
	out, err := p.TC.GateEnter(target.SignalGate, kernel.GateRequest{
		Label:     reqLbl,
		Clearance: reqClr,
		Verify:    lbl,
		Args:      args[:],
	})
	// Drop the acquired privilege again regardless of the call's outcome.
	_ = p.TC.SelfSetLabel(lbl.With(target.Pr, label.L1).With(target.Pw, label.L1))
	_ = p.TC.SelfSetClearance(clr)
	if err != nil {
		return mapKernelErr(err)
	}
	if string(out) != "ok" {
		return fmt.Errorf("unixlib: signal delivery failed: %s", out)
	}
	return nil
}

// HandlePendingSignals drains the alert queue and runs the registered
// handlers; processes call it at convenient points (the library's alert
// handler vector).
func (p *Process) HandlePendingSignals() int {
	handled := 0
	for {
		code, ok, err := p.TC.AlertPoll()
		if err != nil || !ok {
			return handled
		}
		handled++
		sig := int(code)
		p.sigMu.Lock()
		h := p.handlers[sig]
		p.sigMu.Unlock()
		if sig == SIGKILL {
			p.Exit(128 + SIGKILL)
			return handled
		}
		if h != nil {
			h(sig)
		}
	}
}
