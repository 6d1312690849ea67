// On-disk integrity reference.  (The package comment in store.go covers
// the layout, the segment-structured data region, the incremental
// checkpoint protocol, and the locking; this file documents the checksum
// formats, the checkpoint write schedule, the degradation ladder, and the
// quarantine semantics in one place.)
//
// # Checksums
//
// Every persistent structure carries a CRC32C (Castagnoli), chosen for its
// burst-detection properties: the generator polynomial has a factor of
// x+1, so any odd-weight error burst within one checksummed span is
// detected with certainty.
//
//   - Superblock: two 64-byte copies at offsets 0 and 512, each with a
//     CRC32C over bytes [0, 56) in its final u32.  Fields (LE u64): magic
//     "HIST", referenced metadata area (0 or 1), snapshot byte length, log
//     region size, metadata area size, format version (2), checkpoint
//     epoch.
//   - Metadata area header (48 bytes): magic "HMET", version (8), checkpoint
//     epoch, payload length, section count (3), CRC32C over the header's
//     first 40 bytes.
//   - Metadata sections: each framed [tag u64][length u64][CRC32C u64]
//     [payload], the CRC covering the payload.  Tags: 1 object map, 3
//     labels, 5 segment table (base, size, used triples for the append-only
//     data segments); tags 2 (the free extents, until version 7), 4 and 6
//     are retired.  Verification requires each of the three tags exactly
//     once, in-bounds lengths, and no trailing bytes, so a flipped tag or
//     length never silently reassigns bytes between sections.  Nothing
//     derivable is stored: the free list and the per-segment live counts
//     are rebuilt from these sections at open, and a layout that overlaps
//     or leaves the data region is a CorruptError.
//   - Object extents: the object-map entry records a CRC32C of the
//     object's contents, computed when the checkpoint writes it to its
//     home (segment or dedicated extent) and verified on every read of the
//     extent (a Get of a clean object, the kernel's page-in) and every scrub
//     pass.  Bit 32 of the entry's CRC field flags
//     the checksum present; every entry written has it, and a decoded
//     entry without it is corruption.
//   - Write-ahead log: header, frame-descriptor, frame-payload and
//     per-record CRCs, header version 9 (package wal); each frame's
//     descriptor carries the epoch it was committed in.  A range record is
//     a u64 offset and the bytes there, laid over the object's last whole one.
//
// Each structure has exactly one version.  A superblock copy or metadata
// area that verifies but names any other version is a CorruptError, which
// the ladder below treats like any other damage; a log header that does is
// wal.ErrVersion, and Open refuses the mount with the log region untouched.
//
// # Checkpoint write schedule
//
// An incremental checkpoint committing epoch E writes in this order, each
// step leaving the previously referenced snapshot intact:
//
//  1. SEAL (brief ckptMu write hold): take epoch E, above every epoch the
//     log holds, and capture the dirty set — in memory, no device I/O.  Log
//     frames committed from then on carry E: exactly the syncs the epoch-E
//     snapshot might miss.  A failed attempt burns its epoch; the retry
//     takes the next.
//  2. BODY (no ckptMu; serialized by ckptRun; mu only between device writes,
//     to record where bytes went): write sealed objects, in the order they
//     changed, into append-only segments (or dedicated extents), never over
//     live data: appends land beyond each segment's committed high-water
//     mark, and allocation takes only from the free list derived at the last
//     commit, so vacated extents are never reused before a snapshot without
//     them commits (out of space, the body first commits the sealed
//     deletions alone, under the committed epoch).
//  3. Serialize the metadata (read under mu; each home carries its sealed
//     label) into the area the superblock does NOT reference, flush, then
//     rewrite both superblock copies referencing it at epoch E and flush
//     again (all under ckptRun, which a scrub holds while it verifies these
//     areas, so it never reads them mid-rewrite).  Then derive the free
//     list anew.  An image larger than the area fails the checkpoint with
//     ErrNoSpace before any of these writes.
//  4. FINISH: reclaim the log frames of epochs below the previous committed
//     snapshot's, P.  P's frames are retained so a later torn epoch-E area
//     can fall back one snapshot and replay forward with zero
//     committed-sync loss (when they would starve the log, it degrades to
//     reclaiming every frame below E).
//
// A crash before the superblock flip recovers at epoch P plus replay of
// the records of epoch P or later; after it, at epoch E plus replay of the
// records of epoch E or later.  Every
// boundary in between is exercised by the crash matrices in crash_test.go
// and incremental_test.go.
//
// # Degradation ladder
//
// Open never serves unverified state and never gives up while an intact
// copy remains.  From least to most degraded:
//
//  1. Clean: primary superblock copy verifies, the referenced metadata
//     area verifies at the superblock's epoch, the log replays that
//     epoch's records and later ones.
//  2. SuperblockFallback: the primary copy fails, the backup at offset 512
//     verifies and is used.  Nothing else changes.
//  3. MetaFallback: the referenced area fails; the alternate area is
//     accepted only if it verifies at an epoch no newer (a newer epoch
//     would mean an uncommitted checkpoint; the same one, the snapshot
//     before a full store committed deletions alone).  The write-ahead
//     log then replays the older epoch's records and later ones — FINISH
//     keeps them, and a checkpoint's freed extents rejoin the allocator
//     only after its snapshot commits, so falling back one snapshot loses no
//     committed sync, range records too: each one's whole record was
//     committed in the same epoch.
//  4. WALDamaged: a rotted log frame or header truncates replay to the
//     valid prefix; the log is resealed to it.  (A commit is one frame, one
//     flush: a frame the crash tore was never acknowledged, and no rung fires.)
//  5. Refusal: both superblock copies, or both metadata areas, are
//     damaged.  Open returns an error wrapping ErrCorrupt rather than
//     guessing.
//
// Which rungs fired is recorded in the RecoveryReport, immutable after
// Open; a degraded mount heals on the next checkpoint, which rewrites both
// the metadata and both superblock copies at a fresh epoch.
//
// # Quarantine
//
// A home extent whose contents fail CRC verification — on a Get of a clean
// object (the kernel's page-in), during a scrub, or when the segment cleaner
// tries to copy it out — reaches one verdict (condemn, in home.go), which
// quarantines the one object whose home is that extent: accesses return a
// QuarantineError (errors.Is-matching both ErrQuarantined and ErrCorrupt),
// SyncObject refuses to log the damaged bytes, and the ID stays
// enumerable via QuarantinedObjects.  The rest of the store serves normally
// (the cleaner additionally leaves the damaged object's whole segment in place
// — moving it would destroy the only, albeit damaged, copy).  A range record
// whose whole record replay has not met (the store writes none) quarantines
// its object the same way at Open, rather than lay its bytes over a copy they
// were not written against.  A quarantine verdict is lifted by anything that
// replaces the damaged extent as the object's authority: a new Put, a Delete,
// a logged copy replayed at open, or the commit of a checkpoint that relocated
// a sealed dirty entry — and is never passed on an object whose dirty, dead or
// checkpoint-sealed in-memory state already supersedes the extent.  Because
// scrub runs concurrently with checkpoint bodies, a scrub mismatch is
// re-validated against the live home table before the verdict — an extent the
// checkpoint has already superseded is stale, not damaged.  Detection and
// quarantine events are counted in Stats (CorruptionsDetected,
// QuarantineEvents).
//
// The bit-rot harness in bitrot_test.go injects odd-weight flips into each
// structure above — including objects packed inside sealed segments — and
// asserts the matching rung, and only that rung, fires.

package store
