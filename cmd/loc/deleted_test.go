package main

import (
	"bytes"
	"io/fs"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

// deleted lists the names cut from the module, grouped by the cut that
// removed them, oldest first.  None may come back in non-test code: a test
// may still name one (to show it is gone), nothing else may.  The surface
// test holds the general rule that an exported name needs a non-test
// reader; this list holds the cuts themselves, unexported names included.
var deleted = []struct {
	cut   string
	names []string
}{
	{"the store's label index, the log's pending buffer and the bundle lineage",
		[]string{"ObjectsWithLabel", "VerifyLabelIndex", "labelIndex", "ContainerFindLabeled", "AppendBatch", "DropPending", "bundleLineage", "StoreLineage"}},
	{"the store's bundle layer",
		[]string{"SnapshotBundle", "ValidateBundle", "DeleteBundle", "BundleObject", "bundleRetentionFloor", "secBundles", "flagBundle", "unlinkClone"}},
	{"the snapshot lineage",
		[]string{"snapObject", "snapLineage"}},
	{"the directory generation and busy words",
		[]string{"bump", "dsGenOff", "dsBusyOff"}},
	{"the ring's sort and passes",
		[]string{"sortUnits", "ringUnit", "planItem", "dispatchSyncs"}},
	{"the log's seal marker",
		[]string{"AppendMark", "ReplayStart", "flagMark", "markOffs", "markIdxs"}},
	{"the label comparison cache, per-thread L1, intern table and fingerprints",
		[]string{"labelCache", "canObserveT", "canModifyT", "l1Mix", "l1Retired", "fingerprintCanonical", "internTable", "NewCache", "RaisedFingerprint", "Intern"}},
	{"the store's second object map, the ring's run-sharing and the library's store-eviction hook",
		[]string{"objMap", "execRun", "nCoalesced", "evictCache"}},
	{"the store's entry shards and its metadata and allocator locks",
		[]string{"storeShard", "shardOf", "storeShards", "shardEntry", "metaMu", "allocMu"}},
	{"the B+-tree package and the free trees, the striped syscall counters and futex shards",
		[]string{"histar/internal/btree", "freeBySize", "freeByOff", "removeFree", "sortSegs", "stripedCounter", "counterStripes", "paddedUint64", "futexShard"}},
	{"the stored free list and its deferred frees",
		[]string{"secFree", "decodeFreeSection", "deferredFree", "addFree"}},
	{"the ownership-grant shortcut, the category-name table and netd's naming and mount knobs",
		[]string{"GrantOwnership", "CategoryCreateNamed", "CategoryAllocator", "SetName", "TaintName", "MountPath"}},
	{"the ring's gate entries, syncs and chains",
		[]string{"OpGateEnter", "OpSync", "ErrSkipped", "execGateEnter", "scRingSubmit", "scRingSync", "SyncEntries", "nGateCalls"}},
	{"the shared call descriptor and webd's lane goroutines and batches",
		[]string{"sysCall", "execOp", "scFor", "opWrites", "objectStatLocked", "laneLoop", "runBatch", "laneBatch", "reqCh"}},
	{"netd's shared-memory receive path and the library's mount table",
		[]string{"AttachFastPath", "RecvFast", "fillFastSegment", "drainToFast", "FastpathReads", "MountTable"}},
	{"the kernel's container snapshot and clone, and the store's aliases",
		[]string{"ContainerSnapshot", "ContainerClone", "DropSnapshot", "CloneResult", "SnapshotInfo", "renumber", "remapLabel", "sealAlias", "replayAliasRecord", "extRefs", "flagClone", "ErrCloneExists", "ErrNotCommitted", "Alias"}},
	{"the label namer, the store's unread counters, webd's idle-eviction count, netd's connection map and the library's unused error",
		[]string{"Namer", "CategoryName", "LogApplications", "SealStallTotalNs", "LabelBytesLogged", "SegsAllocated", "SegsFreed", "IdleEvictions", "remoteStates", "ErrNoUser"}},
	{"the store's sorting home-table scan, its per-id home setters and the seal's capture of every label",
		[]string{"scanHomes", "setHome", "dropHome", "sealedLabel"}},
	{"the ring's write, resize, length and stat ops and its completion record, the store's second stats surface and its superblock lock",
		[]string{"OpSegmentWrite", "OpSegmentResize", "OpSegmentLen", "OpObjectStat", "RingCompletion", "IntegrityStats", "integrityCounters", "sbMu"}},
	{"the store's dedicated extents, their alignment, its label section and the dead entry's second seal",
		[]string{"writeObjectHome", "extentAlign", "alignUp", "decodeLabelSection", "secLabels", "deadSealed"}},
	{"the store's two metadata areas, their size option and the superblock's selector",
		[]string{"MetaAreaSize", "defaultMetaAreaSize", "metaAreaOff", "metaWhich", "sbWhichOff", "sbMetaSzOff"}},
	{"the base's own header and tagged sections, which one record format for bases and deltas replaced",
		[]string{"parseMetaHeader", "parseSections", "decodeObjMapSection", "decodeSegsSection", "decodePinsSection", "secObjMap", "secSegs", "secPins", "secHdrSize", "numSecs", "metaHeaderSize", "metaMagic", "metaVersion"}},
	{"the scrub's chunks and the hand-rolled min and max helpers",
		[]string{"scrubChunk", "maxLevel", "maxTaint", "max64", "min64"}},
	{"the log's start offset, its compaction and its reseal, which a restart replaced",
		[]string{"reclaimOff", "noteFrame", "compactLocked", "reseal", "adopt", "writeHeader"}},
	{"the per-mapping address-space calls, which setting the whole image replaced",
		[]string{"AddressSpaceAddMapping", "AddressSpaceRemoveMapping", "scASAddMapping", "scASRemoveMapping"}},
}

// isWord reports whether b is a word byte in grep -w's sense.
func isWord(b byte) bool {
	return b == '_' || '0' <= b && b <= '9' || 'a' <= b && b <= 'z' || 'A' <= b && b <= 'Z'
}

// wholeWords calls fn with the offset of every occurrence of name in src that
// has no word byte on either side.
func wholeWords(src []byte, name string, fn func(off int)) {
	for off := 0; ; off++ {
		i := bytes.Index(src[off:], []byte(name))
		if i < 0 {
			return
		}
		off += i
		if (off == 0 || !isWord(src[off-1])) && (off+len(name) == len(src) || !isWord(src[off+len(name)])) {
			fn(off)
		}
	}
}

// TestDeletedNamesStayGone fails when a non-test .go file of the module
// names, as a whole word (grep -w), anything in deleted.  Test inputs
// (testdata) and dot directories are not the module's code.
func TestDeletedNamesStayGone(t *testing.T) {
	cutBy := map[string]string{} // names of word bytes alone
	var paths []string           // names with other bytes: import paths
	for _, c := range deleted {
		for _, n := range c.names {
			if prev, dup := cutBy[n]; dup {
				t.Errorf("%s is listed under %q and %q", n, prev, c.cut)
			}
			cutBy[n] = c.cut
			if strings.ContainsFunc(n, func(r rune) bool { return r > 0x7f || !isWord(byte(r)) }) {
				paths = append(paths, n)
			}
		}
	}
	root := filepath.Join("..", "..")
	files := 0
	err := filepath.WalkDir(root, func(p string, d fs.DirEntry, err error) error {
		switch {
		case err != nil:
			return err
		case d.IsDir() && p != root && (d.Name() == "testdata" || strings.HasPrefix(d.Name(), ".")):
			return filepath.SkipDir
		case d.IsDir() || !strings.HasSuffix(p, ".go") || strings.HasSuffix(p, "_test.go"):
			return nil
		}
		src, err := os.ReadFile(p)
		if err != nil {
			return err
		}
		files++
		found := func(off int, n string) {
			line := 1 + bytes.Count(src[:off], []byte("\n"))
			t.Errorf("%s:%d names %s, cut with %s; it is not to come back", p, line, n, cutBy[n])
		}
		for i := 0; i < len(src); {
			j := i
			for j < len(src) && isWord(src[j]) {
				j++
			}
			if _, ok := cutBy[string(src[i:j])]; ok {
				found(i, string(src[i:j]))
			}
			i = max(j, i+1)
		}
		for _, n := range paths {
			wholeWords(src, n, func(off int) { found(off, n) })
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	if files < 50 {
		t.Fatalf("read %d files; the check reads nothing", files)
	}
}
