package kernel

import (
	"fmt"
	"slices"
	"sync"
	"sync/atomic"

	"histar/internal/label"
)

// ID is a 61-bit kernel object identifier.  Like category names, object IDs
// are generated by encrypting a counter so they reveal nothing about
// allocation volume.
type ID uint64

// NilID is the zero object ID; no object ever has it.
const NilID ID = 0

// String implements fmt.Stringer.
func (id ID) String() string { return fmt.Sprintf("o%d", uint64(id)) }

// ObjectType enumerates the six kernel object types (Section 3, Figure 5).
type ObjectType int

const (
	// ObjSegment is a variable-length byte array, similar to a file.
	ObjSegment ObjectType = iota
	// ObjThread is an executing thread with a label and clearance.
	ObjThread
	// ObjAddressSpace maps virtual addresses to segment ranges.
	ObjAddressSpace
	// ObjGate provides protected control transfer with privilege.
	ObjGate
	// ObjContainer holds hard links to other objects and controls quota.
	ObjContainer
	// ObjDevice represents a hardware device (the network device).
	ObjDevice

	numObjectTypes
)

// String implements fmt.Stringer.
func (t ObjectType) String() string {
	switch t {
	case ObjSegment:
		return "segment"
	case ObjThread:
		return "thread"
	case ObjAddressSpace:
		return "address-space"
	case ObjGate:
		return "gate"
	case ObjContainer:
		return "container"
	case ObjDevice:
		return "device"
	default:
		return fmt.Sprintf("ObjectType(%d)", int(t))
	}
}

// TypeMask is a bitmask over object types, used for a container's
// avoid-types restriction.
type TypeMask uint8

// Mask returns the bit for an object type.
func Mask(t ObjectType) TypeMask { return TypeMask(1) << uint(t) }

// Has reports whether the mask includes type t.
func (m TypeMask) Has(t ObjectType) bool { return m&Mask(t) != 0 }

// MetadataSize is the number of bytes of mutable user-defined metadata every
// object carries (used by the Unix library for modification times etc.).
const MetadataSize = 64

// DescripSize is the maximum length of the descriptive string supplied at
// object creation.
const DescripSize = 32

// QuotaInfinite is the reserved quota value meaning "unlimited"; only the
// root container is created with it, though the administrator may grant it
// to others.
const QuotaInfinite = ^uint64(0)

// CEnt is a container entry: most system calls name objects by a
// 〈container ID, object ID〉 pair so the kernel can verify the invoking
// thread is permitted to know of the object's existence.
type CEnt struct {
	Container ID
	Object    ID
}

// Self returns the container entry naming container id through itself (every
// container contains itself).
func Self(id ID) CEnt { return CEnt{Container: id, Object: id} }

// header carries the state common to all kernel objects.
//
// id, objType, and descrip are immutable after construction.  lbl is
// immutable for every object type except threads (self_set_label, gate
// entry and category_create retarget a thread's label under mu).  The
// remaining fields are mutable and guarded by mu, the per-object lock of the
// package's locking discipline (see the package comment), except dead, which
// is atomic so lock-free table lookups can skip deallocated objects.
type header struct {
	id      ID
	objType ObjectType
	descrip string

	mu sync.RWMutex

	lbl        label.Label
	quota      uint64
	usage      uint64
	fixedQuota bool
	immutable  bool
	metadata   [MetadataSize]byte
	refs       int // number of hard links from containers

	dead atomic.Bool // deallocated; set under mu, read lock-free
}

// object is implemented by all six kernel object types.
type object interface {
	hdr() *header
	// footprint returns the storage charged to this object beyond its quota
	// bookkeeping (its own data structures).
	footprint() uint64
}

// segment is a variable-length byte array.
type segment struct {
	header
	data []byte
	// frozen marks data as shared copy-on-write with a segment copy
	// (SegmentCopy), with zeros (a fresh segment, segment.go) or with the
	// pager (a handed push, pager.go): neither it nor the capacity past it
	// may be written, so the first mutation or growth copies it and clears
	// the flag (reshape).  handed, read only while frozen, says the pager is
	// all it is shared with, so the break is no copy's and counts in no
	// ledger.  Both are guarded by the segment's lock like data.
	frozen, handed bool
	// persistent says the bytes are a store object (SegmentPersist); dirty,
	// that the pager has not seen them since they last changed, and [lo, hi)
	// which of them did (pager.go).  All are guarded by the segment's lock.
	persistent, dirty bool
	lo, hi            int
	// paged says Evict dropped data's plen bytes.  Readers under the shared
	// lock may fault at once: faultMu admits one to the pager, and it
	// installs data before clearing paged.
	paged   atomic.Bool
	plen    int
	faultMu sync.Mutex
}

func (s *segment) hdr() *header { return &s.header }
func (s *segment) footprint() uint64 {
	if s.paged.Load() {
		return uint64(s.plen) + 128
	}
	return uint64(len(s.data)) + 128
}

// container holds hard links to objects: entries is the one record of them,
// and a listing or a teardown sorts its keys, so both come in ascending ID
// order.
type container struct {
	header
	parent     ID
	entries    map[ID]bool
	avoidTypes TypeMask
}

func (c *container) hdr() *header      { return &c.header }
func (c *container) footprint() uint64 { return uint64(len(c.entries))*16 + 256 }

func (c *container) link(id ID)   { c.entries[id] = true }
func (c *container) unlink(id ID) { delete(c.entries, id) }

// list returns the linked IDs, ascending.
func (c *container) list() []ID {
	out := make([]ID, 0, len(c.entries))
	for id := range c.entries {
		out = append(out, id)
	}
	slices.Sort(out)
	return out
}

// thread is an executing thread.
type thread struct {
	header
	clearance    label.Label // guarded by header.mu, like lbl
	addressSpace CEnt        // guarded by header.mu
	localSegment *segment    // immutable pointer; the segment has its own lock
	halted       bool        // guarded by header.mu

	// alerts delivered but not yet consumed (signal numbers or opaque
	// codes); guarded by header.mu.
	alertQueue []uint64
	alertCh    chan struct{}

	// scheduling/accounting
	syscallCount atomic.Uint64
}

func (t *thread) hdr() *header      { return &t.header }
func (t *thread) footprint() uint64 { return 512 + uint64(len(t.localSegment.data)) }

// MapFlags are the access-permission bits of an address-space mapping.
type MapFlags uint8

// Mapping permission flags.
const (
	MapRead MapFlags = 1 << iota
	MapWrite
	MapExec
	// MapThreadLocal marks the reserved mapping of the current thread's
	// local segment.
	MapThreadLocal
)

// addressSpace maps virtual addresses to segments.
type addressSpace struct {
	header
	mappings []Mapping
	// faultHandler, if set, is invoked (at user level) when a memory access
	// fails its checks.
	faultHandler func(va uint64, write bool, err error)
}

func (a *addressSpace) hdr() *header      { return &a.header }
func (a *addressSpace) footprint() uint64 { return uint64(len(a.mappings))*48 + 128 }

// GateCallCtx carries what gate entry code receives when a thread enters the
// gate: the entering thread's syscall context (now running with the label
// and clearance acquired on entry), the verify label the caller supplied to
// prove category ownership, the call arguments (conventionally passed
// through the thread-local segment), and the closure arguments fixed when
// the gate was created.
//
// The ctx is valid only for the duration of the entry call: the kernel
// recycles it once the entry point returns, so entry code must not retain
// the pointer.  Closure aliases the gate's immutable closure bytes and must
// not be written to.
type GateCallCtx struct {
	TC      *ThreadCall
	Verify  label.Label
	Args    []byte
	Closure []byte
}

// GateEntry is the thread state stored in a gate: where a thread entering
// the gate starts executing.  In this reproduction the entry point is a Go
// function rather than a PC and an initial stack.
type GateEntry func(call *GateCallCtx) []byte

// gate provides protected control transfer.
type gate struct {
	header
	gateLabel    label.Label // may contain ⋆
	clearance    label.Label
	addressSpace CEnt
	entry        GateEntry
	closureArgs  []byte
}

func (g *gate) hdr() *header      { return &g.header }
func (g *gate) footprint() uint64 { return 256 + uint64(len(g.closureArgs)) }

// device represents the network device.  The kernel network API is three
// calls: get the MAC address, provide a transmit or receive buffer, and wait
// for a packet (Section 4.1).
type device struct {
	header
	mac      [6]byte
	rxQueue  [][]byte
	waitCh   chan struct{}
	txNotify func(pkt []byte)
}

func (d *device) hdr() *header      { return &d.header }
func (d *device) footprint() uint64 { return 512 }

// Stat is the externally visible state of an object, returned by ObjectStat.
type Stat struct {
	ID         ID
	Type       ObjectType
	Label      label.Label
	Quota      uint64
	Usage      uint64
	FixedQuota bool
	Immutable  bool
	Descrip    string
	Metadata   [MetadataSize]byte
}
