// Package histar is a reproduction of "Making Information Flow Explicit in
// HiStar" (Zeldovich, Boyd-Wickizer, Kohler, Mazières; OSDI 2006) as a Go
// library: the kernel object model and label algebra, the single-level
// store, the user-level Unix library, and the paper's applications (the
// wrapped virus scanner, untrusted login, VPN isolation, and per-user web
// services), together with a benchmark harness that regenerates the shape of
// the paper's Figure 12 and Figure 13 on simulated hardware.
//
// The label algebra (internal/label) keeps every label in an immutable
// canonical form — a slice of category/level pairs sorted by category — so ⊑
// and ⊔ are linear merges.  Every access check is one such merge, with a
// thread's label read as its superscript-J form on the fly, so a check
// allocates nothing and the kernel memoizes none of them; the single-level
// store persists labels in the same canonical serialized form.
//
// The single-level store (internal/store) makes labels first-class durable
// state: every SyncObject log record carries the object's contents and
// canonical label in one atomic commit (see the internal/wal package
// comment for the frame and record format), and checkpoints are
// copy-on-write so a torn write can never corrupt the referenced snapshot.
// The store's in-memory state — object entries, the object map, the free
// list and the segment table — sits behind one mutex that is never held
// across a device write, and a store-wide RWMutex serves only as the
// checkpoint gate, held exclusively by nothing but a checkpoint's seal,
// which raises the log epoch in memory and writes nothing.  Concurrent
// SyncObject calls flow through a leader/follower group committer — sealed
// records batch into one wal.Commit, which is one frame written at the
// log's tail and one flush, stamped with the epoch, with every syncer
// waiting on a commit ticket — so many fsyncs share one log write and none
// of them seeks (see the internal/store package comment for the locking
// discipline and the group-commit protocol's crash-consistency
// invariants).  A crash-injection harness (disk.FaultDisk plus the recovery
// tests in internal/store) replays every write-boundary crash point of
// randomized workloads — serial and concurrent, including mid-batch and
// partial-destage crashes — against a reference model to keep those
// guarantees checkable.
//
// The kernel (internal/kernel) runs system calls with no global lock: the
// object table is sharded by object-ID bits with a per-shard RWMutex, every
// object carries its own RW lock, and multi-object syscalls acquire object
// locks in ascending object-ID order (see the internal/kernel package
// comment for the full discipline).  Read-mostly syscalls take only read
// locks, and a label check touches no shared state at all.  Syscall
// statistics are one atomic counter per syscall, indexed by a fixed enum.
//
// A gate entry is one GateEnter system call with the Section 3.5 checks,
// and fsync is one SyncSegments call: each segment it names is opened (the
// thread must be able to modify it) and pushed under its own lock, and the
// ones that pushed are committed as one pre-formed SyncObjects group, which
// the group committer turns into dense log batches: ⌈N/128⌉ flushes for N
// syncs instead of N.  The Unix library's multi-file writev/fsync fan-out
// (Process.PwritevFsync, Process.FsyncMany) is built on it.  A web request
// runs on its caller's goroutine: it takes one of webd's pooled lane
// threads, makes one GateEnter and one SegmentRead of the reply, and resets
// the lane's label.  What is left of the syscall ring (kernel.Ring, one
// file) queues segment reads and makes each as a SegmentRead; it stays only
// for the benchmark's ring rows.
//
// Sandbox creation is O(metadata) through the kernel's one copy primitive,
// as in the paper: SegmentCopy shares the source's array, frozen, until
// either segment's first write breaks the share for that segment alone, and
// passes the ordinary checks (observe the source, write the container,
// allocate at the copy's label).  The kernel keeps no snapshot or clone of
// its own.  unixlib.BakeGolden packages the pattern as golden-image
// spawning: the bootstrap thread, owning the template user's categories,
// copies a built sandbox's segments into a public, immutable image container
// and keeps a manifest of the build; SpawnFromGolden re-creates the build for
// one user, each segment a copy at the build's label with the template's
// categories replaced by the user's.  With a persistent store the image's
// segments are ordinary store objects, synced once at the bake, so an
// evicted image pages in verified and a rotted one fails the spawn with a
// typed error.  webd's session cache spawns each cold-login user's sandbox
// from a golden image in microseconds instead of rebuilding it
// (examples/goldenspawn; the acceptance floors — a spawn ≥50x faster than a
// from-scratch build, bytes copied ≤1% of bytes shared — are asserted by
// internal/kernel's golden-image test).
//
// The user-level Unix library (internal/unixlib) carries no big locks
// either: program and user tables are read-mostly RWMutexes, PIDs are
// atomic, directory-segment bindings come from a sharded cache, and each
// file descriptor owns a seek lock shared across the processes that share
// the descriptor segment — so multi-process workloads actually exploit the
// concurrent kernel and store beneath them.  A descriptor exists to be shared, so the whole-file calls
// (ReadFile, WriteFile, FsyncPath) open none: they resolve the path and act
// on the file segment, where the kernel checks its label.  Process creation
// is history-independent: whoever builds a process (a parent, the bootstrap
// thread, webd's launcher) allocates its pr and pw, builds it, and sheds both
// categories before returning, so a creator's label — and with it the cost of
// every later label operation — is the same after a million children as after
// one, and a parent cannot read a child it has finished building (see the
// lifetime protocol in internal/unixlib/process.go).  The same rule shapes the applications: webd
// launches workers from its demultiplexer's main thread and reaps every one
// it tears down, and an auth login's session objects live in a container the
// client supplies and die with the attempt.
//
// The library states each of its recurring jobs once.  A directory segment
// holds its entries sorted by name hash in buckets — a bucket per 16 entries,
// rounded up to a power of two, when it was last laid out — each in a region
// with slack after its entries, and a table of fences after the header says
// where each region starts; its first word is a sequence lock, even when
// free, odd during an edit.  A directory changes only through editDir
// (internal/unixlib/dirseg.go: read the header and fences, compare-and-swap
// the even word it saw to odd, read and rewrite the one bucket the name
// falls in — the whole directory, laid out anew, when the bucket's slack
// runs out — publish the count and the word two past the one it saw in one
// write, wake every sleeper), which create, mkdir, unlink and both kinds of
// rename are closures over.  A lookup reads the header and fences — all of
// a directory shorter than 2 KiB — and, when the directory is larger, its
// bucket's fences if that read lacked them, the bucket and the sequence word
// again; a listing is one read of the segment.  Either sleeps on the word's futex while it is odd and reads
// again when it moved.  A file's bytes move through readAt and writeAt
// (read; write with the quota retry, mtime).
//
// There is one persistence path, and it is the kernel's (Sections 3 and 4:
// the single-level store is the kernel's own, and a sync is a system call).
// kernel.Pager (internal/kernel/pager.go) is the one interface through which
// bytes and sync requests leave for the store, and the one way they come
// back; Kernel.SetPager attaches *store.Store to it at boot (its Get is the
// page-in), and nothing but the kernel calls it.  What a
// thread may ask, each behind the ordinary resolve-and-label check:
// SegmentPersist marks a segment it can modify persistent (the library does
// so where it creates a file's or a directory's segment); SyncSegments —
// fsync, one call for any number of files — pushes each target it can modify
// and commits the group through the write-ahead log; Sync — group sync, and
// fsync of a directory — pushes every segment on the kernel's dirty list and
// checkpoints, so it costs what changed since the last sync, not what exists,
// and the store's seal likewise walks only the objects changed since the
// last checkpoint.  What the kernel decides alone: the one gate every
// mutation of a segment passes (direct call, compare-and-swap, store through
// a mapping) marks it dirty and lists it, the one place an object dies takes
// it off the list and tells the store to delete it, and
// Kernel.Evict drops every clean persistent segment's bytes, which the
// segment's next access of any kind pages back in, whole — damage comes back
// as ErrCorrupt (EIO).  So a persistent byte is resident once: in the kernel
// while clean, the store keeping its own copy only while it is dirty or
// sealed into a checkpoint not yet committed (Section 4: memory is a cache of
// the disk).  A push copies the bytes under that segment's lock and no other
// segment's; the group commit, the checkpoint and the delete run with no
// kernel lock held; the lock order is kernel → store only.  The library names
// the store in Boot alone, and EvictFileCache is Kernel.Evict.
//
// The root package holds only the Figure 12/13 row benchmarks
// (bench_test.go); the repository's benchmark is the bench/ program
// (go run ./bench, declared in BENCHMARK.json), the implementation lives
// under internal/ and the runnable entry points under cmd/ and examples/.
package histar
