// Package histar is a reproduction of "Making Information Flow Explicit in
// HiStar" (Zeldovich, Boyd-Wickizer, Kohler, Mazières; OSDI 2006) as a Go
// library: the kernel object model and label algebra, the single-level
// store, the user-level Unix library, and the paper's applications (the
// wrapped virus scanner, untrusted login, VPN isolation, and per-user web
// services), together with a benchmark harness that regenerates the shape of
// the paper's Figure 12 and Figure 13 on simulated hardware.
//
// The label algebra (internal/label) keeps every label in an immutable
// canonical form — a slice of category/level pairs sorted by category, with
// the 64-bit fingerprint (and the fingerprint of the raised superscript-J
// form) computed once at construction — so ⊑ and ⊔ are linear merges (⊑
// allocation-free), access-check caching is a pair of stored
// field reads, and hot labels are interned down to one shared
// pointer-comparable instance.  The kernel's comparison cache is sharded by
// fingerprint bits with per-shard eviction, and the single-level store
// persists labels in the same canonical serialized form.
//
// The single-level store (internal/store) makes labels first-class durable
// state: every SyncObject log record carries the object's contents and
// canonical label in one atomic commit (see the internal/wal package
// comment for the frame and record format), and checkpoints are
// copy-on-write so a torn write can never corrupt the referenced snapshot.
// The store runs concurrently under the same discipline as the kernel: the
// object cache and label map are sharded by object-ID bits, each cached
// object carries its own entry lock and dirty state, the allocator and
// metadata trees sit behind narrow locks of their own, and a store-wide
// RWMutex serves only as the stop-the-world checkpoint gate.  Concurrent
// SyncObject calls flow through a leader/follower group committer — sealed
// records batch into one wal.Commit, which is one frame written at the log's
// tail and one flush, with every syncer waiting on a commit ticket — so many
// fsyncs share one log write and none of them seeks (see the internal/store
// package comment for the locking discipline and the group-commit protocol's
// crash-consistency invariants).  A crash-injection harness (disk.FaultDisk
// plus the recovery tests in internal/store) replays every write-boundary
// crash point of randomized workloads — serial and concurrent, including
// mid-batch and partial-destage crashes — against a reference model to keep
// those guarantees checkable.
//
// The kernel (internal/kernel) runs system calls with no global lock: the
// object table is sharded by object-ID bits with a per-shard RWMutex, every
// object carries its own RW lock, and multi-object syscalls acquire object
// locks in ascending object-ID order (see the internal/kernel package
// comment for the full discipline).  Read-mostly syscalls take only read
// locks; each thread additionally fronts the shared comparison cache with a
// small lock-free L1 keyed by both labels' fingerprints, so the hottest
// canObserve checks touch no mutex.  Syscall statistics are striped atomic
// counters indexed by a fixed syscall enum, merged on read.
//
// Batched submission rides on top of that discipline: a per-thread syscall
// ring (kernel.Ring, an io_uring-style interface) queues segment and stat
// operations plus OpSync durability requests, then executes the whole batch
// under one thread snapshot per Wait.  Completions return in submission
// order with per-entry errors; a Chain flag makes an entry depend on its
// predecessor, with failure skipping the rest of the chain (ErrSkipped).
// Execution reorders independent chains by target object so same-object
// entries share a single resolve, lockOrdered acquisition, and liveness
// check — the sort is stable, so same-object submission order is preserved
// and a write-then-read needs no Chain flag — while still locking
// {container, object} in ascending-ID order, adding no new lock-order edges.
// All OpSync entries in a batch are pushed to the store and committed as one
// pre-formed SyncObjects group, which the group committer turns into dense
// log batches: ⌈N/GroupCommitRecords⌉ flushes for N syncs instead of N.  The Unix
// library's readdir scan and its multi-file writev/fsync fan-out
// (Process.PwritevFsync, Process.FsyncMany) are built on the ring.
//
// Container snapshots make sandbox creation O(metadata): the kernel
// captures a container subtree as an immutable snapshot (segment buffers
// frozen for copy-on-write) under a deterministic lineage ID that covers
// contents, and ContainerClone materializes it with fresh object IDs, intra-subtree
// references rewritten, and per-user categories remapped in every label,
// sharing all segment data COW until first write.  With a persistent store
// attached a snapshot is store objects like any others: after a checkpoint
// the kernel takes an alias of each captured segment under an id of the
// snapshot's own (store.Alias: two object-map entries naming one refcounted
// extent, durable through one small WAL record), a clone's segments are
// aliases of those, and dropping a snapshot deletes them.  A shared extent is
// kept from the segment cleaner and the deferred-free path until its last
// referent goes, a rotted one quarantines every referent — so a clone of it
// fails with a typed error rather than propagating silently — and a clone's
// aliases die with its segments.
// unixlib.BakeGolden/SpawnFromGolden package the pattern as
// golden-image spawning, and webd's session cache uses it to clone each
// cold-login user's sandbox from a golden image in microseconds instead of
// rebuilding it (examples/goldenspawn; the acceptance floors — clone ≥50x
// faster than a from-scratch build, bytes copied ≤1% of bytes shared — are
// asserted by internal/kernel's golden-image test).
//
// The user-level Unix library (internal/unixlib) carries no big locks
// either: program and user tables are read-mostly RWMutexes, PIDs are
// atomic, directory-segment bindings come from a sharded cache, mount
// tables are self-synchronizing, and each file descriptor owns a seek lock
// shared across the processes that share the descriptor segment — so
// multi-process workloads actually exploit the concurrent kernel and store
// beneath them.  Process creation is history-independent: whoever builds a
// process (a parent, the bootstrap thread, webd's launcher) allocates its pr
// and pw, builds it, and sheds both categories before returning, so a
// creator's label — and with it the cost of every later label operation — is
// the same after a million children as after one, and a parent cannot read a
// child it has finished building (see the lifetime protocol in
// internal/unixlib/process.go).  The same rule shapes the applications: webd
// launches workers from its demultiplexer's main thread and reaps every one
// it tears down, and an auth login's session objects live in a container the
// client supplies and die with the attempt.
//
// The library states each of its recurring jobs once.  A directory changes
// only through editDir (internal/unixlib/dirseg.go: take the mutex word, one
// read of the segment, write the entries back, release mutex, generation and
// busy flag with one write), which create, mkdir, unlink and both kinds of
// rename are closures over.  A file's bytes move through readAt and writeAt
// (read; write with the quota retry, mtime).
//
// There is one persistence path, and it is the kernel's (Sections 3 and 4:
// the single-level store is the kernel's own, and a sync is a system call).
// kernel.Pager (internal/kernel/pager.go) is the one interface through which
// bytes and sync requests leave for the store; Kernel.SetPager attaches
// *store.Store to it at boot, and nothing but the kernel calls it.  What a
// thread may ask, each behind the ordinary resolve-and-label check:
// SegmentPersist marks a segment it can modify persistent (the library does
// so where it creates a file's or a directory's segment); OpSync — fsync, a
// ring of one entry per file — pushes each target it can modify and commits
// the group through the write-ahead log; Sync — group sync, and fsync of a
// directory — pushes every dirty segment and checkpoints; a read of a clean
// persistent segment pages it in first, and damage comes back as ErrCorrupt
// (EIO).  What the kernel decides alone: the one gate every mutation of a
// segment passes (direct call, ring entry, compare-and-swap, store through a
// mapping) marks it dirty, and the one place an object dies tells the store
// to delete it.  A push copies the bytes under that segment's lock and no
// other segment's; the group commit, the checkpoint and the delete run with
// no kernel lock held; the lock order is kernel → store only.  The library
// names the store in Boot alone, and keeps of it the one function
// EvictFileCache needs.
//
// The root package holds only the Figure 12/13 row benchmarks
// (bench_test.go); the repository's benchmark is the bench/ program
// (go run ./bench, declared in BENCHMARK.json), the implementation lives
// under internal/ and the runnable entry points under cmd/ and examples/.
package histar
