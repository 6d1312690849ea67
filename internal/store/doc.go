// On-disk integrity reference: the checksums, the checkpoint write schedule,
// the degradation ladder and quarantine.  (The package comment in store.go
// covers the layout and the locking.)
//
// # Checksums
//
// Every persistent structure carries a CRC32C (Castagnoli): its generator
// has a factor of x+1, so any odd-weight error burst within one checksummed
// span is detected with certainty.
//
//   - Superblock: two 80-byte copies at offsets 0 and 512, each a CRC32C
//     over bytes [0, 72) in its u32 after them.  Fields (LE u64): magic
//     "HIST", the base's chain id, log region size, format version (4), the
//     base's epoch, the base's extent (offset, length), the previous base's.
//   - Base header (64 bytes, at the start of the base's extent, whole
//     sectors of the data region): magic "HMET", version (10), epoch, payload
//     length, section count (3), chain id, the sector of the chain's first
//     run header, CRC32C over the first 56 bytes.
//   - Base sections: each [tag u64][length u64][CRC32C u64][payload].  Tags:
//     1 object map (id, offset, size, CRC field, then the label when bit 33
//     of that field is set), 5 segment table (base, size, used), 7 the
//     previous chain's extents (offset, length); 2, 3, 4 and 6 are retired.
//     Each tag appears exactly once, with no trailing bytes.
//   - Run header (one sector): chain id, link, epoch, and the delta's
//     offset, length and CRC32C, then a CRC32C over those 48 bytes.  The
//     link is the base's chain id for a chain's first run header, else one
//     the run header before it derives from its own fields, so no sector the
//     chain has not yet reached passes for the next run header.
//   - Delta (whole sectors): magic "HDLT", epoch, the next run header's
//     sector (the one after the delta), the object-map rows and the segment
//     rows the checkpoint changed — a home at offset 0 or a segment of size
//     0 being one that left — zeros, and its CRC32C in the last 8 bytes.
//   - Object extents: the object-map record holds a CRC32C of the
//     contents, verified on every read of the extent (a Get of a clean
//     object, the kernel's page-in) and every scrub.  Bit 32 of the CRC
//     field flags it present; a record without it, or with a bit above 33,
//     is corruption.
//   - Write-ahead log: header, frame-descriptor, frame-payload and
//     per-record CRCs, version 9 (package wal); each frame carries the
//     epoch it was committed in.  A range record is a u64 offset and the
//     bytes there, laid over the object's last whole one.
//
// Nothing derivable is stored: the free list and the segments' live counts
// are rebuilt at Open, and a home or chain record outside every segment's
// written bytes, two homes overlapping, or a segment leaving the data
// region or overlapping another is a CorruptError.  Each structure has
// exactly one version: a superblock copy or base that verifies but names any
// other is a CorruptError, which the ladder treats like any other damage; a
// log header that does is wal.ErrVersion, and Open refuses the mount.
//
// # Checkpoint write schedule
//
// A checkpoint committing epoch E, after the SEAL took E (above every epoch
// the log holds) in memory, writes in this order:
//
//  1. A run header at the sector the last delta reserved, then the sealed
//     objects and the cleaner's moves, appended past every segment's
//     committed high-water mark into space no committed snapshot names.  The
//     cleaner moves anything only once the packed segments fall under a
//     third live or fewer than cleanReserve whole segments stay free, and
//     reads its victims, the emptiest first, in one ascending sweep before.
//  2. The delta right after the data, then one flush: the commit.  The
//     cache destages in ascending order, so a whole delta implies the data
//     below it; data placed above the delta (an object in a segment of its
//     own, a cleaner's move into a higher segment) makes it two flushes, the
//     data's, then the delta's.  Every write continues where the head
//     stopped.  A failed commit writes zeros over its run header before it
//     returns, so no later flush commits a link whose tables the store has
//     put back.  Only now is the free list derived again; a segment the
//     commit dropped stays out of it until the next commit, so the snapshot
//     before stays whole.
//  3. Past the chain's bound (checkpoint.go): the whole tables as a new
//     base, placed like a delta, a flush, both superblock copies naming it
//     and the last base at epoch E with a fresh chain id, a flush.  If that
//     flush fails, the copies the disk held go back over the cache's, as a
//     failed delta's run header does.  The base and chain before the last
//     base are released; the ones this base ends stay pinned.  A base that
//     finds no room waits for a checkpoint that does.
//  4. FINISH: reclaim log frames of epochs below the previous commit's, P;
//     those of P stay, however full the log, until the next commit.
//
// A crash before step 2's delta is whole recovers at P plus replay of the
// records of epoch P or later; after it, at E.  The crash tests cover every
// write boundary and every sector of each flush.
//
// # Degradation ladder
//
// Open never serves unverified state and never gives up while an intact
// copy remains.  From least to most degraded:
//
//  1. Clean: a superblock copy, its base at its epoch, and the chain verify;
//     a last delta torn by a crash ends the chain, like a torn log frame,
//     and so does one that rots, indistinguishably: the log replays from the
//     delta before, whose frames FINISH keeps, with no committed sync lost.
//  2. SuperblockFallback: the primary copy fails; the backup is used.
//  3. MetaFallback: the base fails; the previous base the superblock names,
//     no newer, is loaded, and its chain, pinned, runs on into the failed
//     base's: the same snapshot, nothing lost.
//  4. ChainTruncated: a run header, or a delta with a run header verifying
//     past it, fails; the snapshot is the delta before it.
//  5. WALDamaged: a rotted log frame or header truncates replay to the
//     valid prefix.
//  6. Refusal: both superblock copies, or both bases, are damaged; Open
//     returns an error wrapping ErrCorrupt.
//
// RecoveryReport records the rungs taken; a degraded mount writes a new base
// at the next checkpoint, which heals it.
//
// # Quarantine
//
// A home extent that fails its CRC — on a Get, in a scrub, or in the
// cleaner — reaches one verdict (condemn, home.go): the object is
// quarantined, its accesses return a QuarantineError (matching
// ErrQuarantined and ErrCorrupt), SyncObject refuses it, and
// QuarantinedObjects lists it; the rest of the store serves normally, and the
// cleaner leaves the damaged object's segment in place.  A range record with
// no replayed whole record quarantines its object at Open.  A Put, a Delete,
// a replayed logged copy or a committed relocation lifts the verdict, which
// is never passed on an object whose in-memory state already supersedes the
// extent; a scrub re-checks a mismatch against the live home table first.
// Stats counts detections and quarantines.  bitrot_test.go injects flips into
// each structure and checks that the matching rung, and only it, fires.
//
// # What an entry holds
//
// A resident entry's contents (objEntry, store.go) are the kernel's own
// array, frozen, when the push covered the object or the object is at most
// handPage bytes (the kernel.Pager contract); otherwise the store's copy,
// which a range push patches in place unless a sealed log record or a
// checkpoint capture aliases it; shared marks the arrays a put must replace,
// not write.  Open copies each replayed record's contents and label out of
// the log read, so no entry pins it.

package store
