package main

import (
	"time"

	"histar/internal/auth"
	"histar/internal/disk"
	"histar/internal/kernel"
	"histar/internal/label"
	"histar/internal/netsim"
	"histar/internal/store"
	"histar/internal/unixlib"
	"histar/internal/vclock"
	"histar/internal/wal"
	"histar/internal/webd"
)

// kernelSeed keys the kernel's object-ID and category generators.  It is a
// constant: the benchmark's -seed drives only the generated inputs, so two
// seeds run the same program on different data.
const kernelSeed = 42

// rig is one booted system and whichever optional parts the workload uses.
// Every layer is reached through its exported functions and Stats snapshots.
type rig struct {
	sys  *unixlib.System
	proc *unixlib.Process // the single client process of unix_build and lfs_*

	auth     *auth.Service
	srv      *webd.Server
	golden   *unixlib.GoldenImage
	link     *netsim.Link
	netClock *vclock.Clock

	st        *store.Store
	dk        *disk.Disk
	diskClock *vclock.Clock
}

// close stops the web server's lane goroutines, if there is a server.
func (r *rig) close() {
	if r.srv != nil {
		r.srv.Close()
	}
}

// lfsStoreOptions is the store configuration of both lfs workloads.
var lfsStoreOptions = store.Options{LogSize: 16 << 20}

// newStoreRig formats a store on a 256 MiB slice of the paper's disk (write
// cache on, as in the paper's runs) and boots a system on it.
func newStoreRig() (*rig, error) {
	clk := &vclock.Clock{}
	params := disk.PaperDisk()
	params.Sectors = (256 << 20) / disk.SectorSize
	params.WriteCache = true
	d := disk.New(params, clk)
	st, err := store.Format(d, lfsStoreOptions)
	if err != nil {
		return nil, err
	}
	r, err := bootRig(st)
	if err != nil {
		return nil, err
	}
	r.dk, r.diskClock = d, clk
	return r, nil
}

// bootRig boots a system (on st when non-nil) with one client process.
func bootRig(st *store.Store) (*rig, error) {
	sys, err := unixlib.Boot(unixlib.BootOptions{Persist: st, KernelConfig: kernel.Config{Seed: kernelSeed}})
	if err != nil {
		return nil, err
	}
	p, err := sys.NewInitProcess("bench")
	if err != nil {
		return nil, err
	}
	return &rig{sys: sys, proc: p, st: st}, nil
}

// counters is a snapshot of every exported counter the per-layer table reads.
type counters struct {
	syscalls   uint64
	gateEnters uint64
	ring       kernel.RingStats
	snap       kernel.SnapshotStats
	lcHits     uint64
	lcMisses   uint64
	lcEvicts   uint64
	l1Hits     uint64
	l1Misses   uint64
	intern     label.InternStats

	sess      webd.SessionStats
	wireBytes uint64
	frames    uint64
	netSim    time.Duration

	st      store.Stats
	wal     wal.Stats
	gc      store.GroupCommitStats
	dk      disk.Stats
	diskSim time.Duration
}

func (r *rig) snapshot() counters {
	k := r.sys.Kern
	lc := k.LabelCacheStats()
	l1 := k.LabelL1Stats()
	c := counters{
		syscalls:   k.SyscallTotal(),
		gateEnters: k.SyscallCounts()["gate_enter"],
		ring:       k.RingStats(),
		snap:       k.SnapshotStats(),
		lcHits:     lc.Hits,
		lcMisses:   lc.Misses,
		lcEvicts:   lc.Evictions,
		l1Hits:     l1.Hits,
		l1Misses:   l1.Misses,
		intern:     label.InternStatsSnapshot(),
	}
	if r.srv != nil {
		c.sess = r.srv.SessionStats()
	}
	if r.link != nil {
		ab, ba, fab, fba := r.link.Stats()
		c.wireBytes, c.frames = ab+ba, fab+fba
		c.netSim = r.netClock.Now()
	}
	if r.st != nil {
		c.st = r.st.Stats()
		c.wal = r.st.WALStats()
		c.gc = r.st.GroupCommitStats()
		c.dk = r.dk.Stats()
		c.diskSim = r.diskClock.Now()
	}
	return c
}

// counterMetrics turns the counter movement across the measured window into
// per-layer metrics.  userBytes is the payload the workload wrote.
func counterMetrics(r *rig, a, b counters, ops int, userBytes uint64) map[string]float64 {
	n := float64(ops)
	d := func(after, before uint64) float64 { return float64(after - before) }
	m := map[string]float64{}

	// An L1 hit answers a ⊑ check without reaching the shared cache, so the
	// checks made are L1 hits plus everything the shared cache saw.
	l1Hits, l1Misses := d(b.l1Hits, a.l1Hits), d(b.l1Misses, a.l1Misses)
	lcHits, lcMisses := d(b.lcHits, a.lcHits), d(b.lcMisses, a.lcMisses)
	m["label.cache_hit_rate"] = ratio(lcHits, lcHits+lcMisses)
	m["label.cache_evictions"] = d(b.lcEvicts, a.lcEvicts)
	m["label.l1_hit_rate"] = ratio(l1Hits, l1Hits+l1Misses)
	m["label.intern_count"] = float64(b.intern.Count)
	m["label.intern_evictions"] = d(b.intern.Evictions, a.intern.Evictions)
	m["label.checks_per_op"] = (l1Hits + lcHits + lcMisses) / n

	entries := d(b.ring.Entries, a.ring.Entries)
	runs, coalesced := d(b.ring.Runs, a.ring.Runs), d(b.ring.Coalesced, a.ring.Coalesced)
	m["kernel.syscalls_per_op"] = d(b.syscalls, a.syscalls) / n
	m["kernel.objects_live_end"] = float64(r.sys.Kern.ObjectCount())
	m["kernel.ring_entries_per_wait"] = ratio(entries, d(b.ring.Waits, a.ring.Waits))
	m["kernel.ring_coalesce_rate"] = ratio(coalesced, runs+coalesced)
	m["kernel.ring_gate_calls_per_op"] = d(b.ring.GateCalls, a.ring.GateCalls) / n
	m["kernel.snap_clones"] = d(b.snap.Clones, a.snap.Clones)
	m["kernel.snap_shared_bytes"] = d(b.snap.SharedBytes, a.snap.SharedBytes)
	m["kernel.snap_copied_bytes"] = d(b.snap.CopiedBytes, a.snap.CopiedBytes)
	m["kernel.snap_cow_breaks"] = d(b.snap.CowBreaks, a.snap.CowBreaks)

	hits, misses := d(b.sess.Hits, a.sess.Hits), d(b.sess.Misses, a.sess.Misses)
	m["webd.session_hit_rate"] = ratio(hits, hits+misses)
	m["webd.cold_logins"] = d(b.sess.ColdLogins, a.sess.ColdLogins)
	m["webd.evictions"] = d(b.sess.Evictions, a.sess.Evictions)
	m["webd.golden_spawns"] = d(b.sess.GoldenSpawns, a.sess.GoldenSpawns)

	m["netsim.wire_bytes_per_op"] = d(b.wireBytes, a.wireBytes) / n
	m["netsim.sim_wire_ms"] = float64(b.netSim-a.netSim) / float64(time.Millisecond)

	if r.st == nil {
		return m
	}
	m["store.checkpoints"] = d(b.st.Checkpoints, a.st.Checkpoints)
	m["store.bytes_home"] = d(b.st.BytesHome, a.st.BytesHome)
	m["store.bytes_cleaned"] = d(b.st.BytesCleaned, a.st.BytesCleaned)
	m["store.meta_bytes_written"] = d(b.st.MetaBytesWritten, a.st.MetaBytesWritten)
	m["store.segs_cleaned"] = d(b.st.SegsCleaned, a.st.SegsCleaned)
	m["store.seal_stall_max_us"] = float64(b.st.SealStallMaxNs) / 1e3
	m["store.live_objects_end"] = float64(b.st.LiveObjects)

	m["wal.commits_per_sync"] = ratio(d(b.wal.Commits, a.wal.Commits), d(b.st.ObjectSyncs, a.st.ObjectSyncs))
	m["wal.max_batch"] = float64(b.gc.MaxBatch)
	m["wal.bytes_per_user_byte"] = ratio(d(b.st.BytesLogged, a.st.BytesLogged), float64(userBytes))
	m["wal.compactions"] = d(b.wal.Compactions, a.wal.Compactions)
	m["wal.reclaims"] = d(b.wal.Reclaims, a.wal.Reclaims)

	m["disk.flushes_per_op"] = d(b.dk.Flushes, a.dk.Flushes) / n
	m["disk.seeks_per_op"] = d(b.dk.Seeks, a.dk.Seeks) / n
	m["disk.writes_per_op"] = d(b.dk.Writes, a.dk.Writes) / n
	m["disk.bytes_read"] = d(b.dk.BytesRead, a.dk.BytesRead)
	m["disk.prefetch_hits"] = d(b.dk.PrefetchHits, a.dk.PrefetchHits)

	m["lfs.sim_disk_ms_per_kop"] = float64(b.diskSim-a.diskSim) / float64(time.Millisecond) / n * 1000
	m["lfs.dev_bytes_per_user_byte"] = ratio(d(b.dk.BytesWritten, a.dk.BytesWritten), float64(userBytes))
	return m
}
