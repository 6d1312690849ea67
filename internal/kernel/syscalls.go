package kernel

import "sync/atomic"

// Syscall statistics.  The evaluation reports per-syscall invocation counts
// (e.g. 317 syscalls per fork/exec, 127 per spawn), and every syscall
// records itself; a single mutex-guarded map here was a global serialization
// point hit on every call.  Instead each syscall name has a fixed index into
// an array of atomic counters: recording a call is one atomic add.

// syscallID indexes the per-syscall counter table.
type syscallID int

const (
	scContainerCreate syscallID = iota
	scContainerGetParent
	scContainerList
	scContainerLink
	scContainerUnref
	scQuotaMove
	scObjectStat
	scObjectSetMetadata
	scObjectSetImmutable
	scObjectSetFixedQuota
	scCategoryCreate
	scSelfGetLabel
	scSelfGetClearance
	scSelfSetLabel
	scSelfSetClearance
	scSelfGetAS
	scSelfSetAS
	scThreadCreate
	scThreadHalt
	scThreadAlert
	scAlertPoll
	scLocalSegmentWrite
	scLocalSegmentRead
	scSegmentCreate
	scSegmentCopy
	scSegmentRead
	scSegmentWrite
	scSegmentResize
	scSegmentCAS
	scSegmentLen
	scFutexWait
	scFutexWake
	scGateCreate
	scGateEnter
	scASCreate
	scASSet
	scASGet
	scASAddMapping
	scASRemoveMapping
	scASSetFaultHandler
	scMemRead
	scMemWrite
	scNetMACAddr
	scNetTx
	scNetRx
	scNetWait
	scSegmentPersist
	scSync
	scSyncSegments

	numSyscalls
)

// syscallNames maps counter indexes to the names the statistics report.
var syscallNames = [numSyscalls]string{
	scContainerCreate:     "container_create",
	scContainerGetParent:  "container_get_parent",
	scContainerList:       "container_list",
	scContainerLink:       "container_link",
	scContainerUnref:      "container_unref",
	scQuotaMove:           "quota_move",
	scObjectStat:          "object_stat",
	scObjectSetMetadata:   "object_set_metadata",
	scObjectSetImmutable:  "object_set_immutable",
	scObjectSetFixedQuota: "object_set_fixed_quota",
	scCategoryCreate:      "category_create",
	scSelfGetLabel:        "self_get_label",
	scSelfGetClearance:    "self_get_clearance",
	scSelfSetLabel:        "self_set_label",
	scSelfSetClearance:    "self_set_clearance",
	scSelfGetAS:           "self_get_as",
	scSelfSetAS:           "self_set_as",
	scThreadCreate:        "thread_create",
	scThreadHalt:          "thread_halt",
	scThreadAlert:         "thread_alert",
	scAlertPoll:           "alert_poll",
	scLocalSegmentWrite:   "local_segment_write",
	scLocalSegmentRead:    "local_segment_read",
	scSegmentCreate:       "segment_create",
	scSegmentCopy:         "segment_copy",
	scSegmentRead:         "segment_read",
	scSegmentWrite:        "segment_write",
	scSegmentResize:       "segment_resize",
	scSegmentCAS:          "segment_cas",
	scSegmentLen:          "segment_len",
	scFutexWait:           "futex_wait",
	scFutexWake:           "futex_wake",
	scGateCreate:          "gate_create",
	scGateEnter:           "gate_enter",
	scASCreate:            "as_create",
	scASSet:               "as_set",
	scASGet:               "as_get",
	scASAddMapping:        "as_add_mapping",
	scASRemoveMapping:     "as_remove_mapping",
	scASSetFaultHandler:   "as_set_fault_handler",
	scMemRead:             "mem_read",
	scMemWrite:            "mem_write",
	scNetMACAddr:          "net_macaddr",
	scNetTx:               "net_tx",
	scNetRx:               "net_rx",
	scNetWait:             "net_wait",
	scSegmentPersist:      "segment_persist",
	scSync:                "sync",
	scSyncSegments:        "sync_segments",
}

// syscallCounters is the full per-syscall statistics table.
type syscallCounters [numSyscalls]atomic.Uint64

// count records a syscall invocation for the statistics the evaluation
// reports.  One atomic add on the per-syscall counter, one on the thread's
// own counter; no shared mutex.
func (k *Kernel) count(sc syscallID, t *thread) {
	if t != nil {
		t.syscallCount.Add(1)
	}
	k.syscalls[sc].Add(1)
}

// SyscallTotal returns the total number of system calls executed since boot.
func (k *Kernel) SyscallTotal() uint64 {
	var n uint64
	for i := range k.syscalls {
		n += k.syscalls[i].Load()
	}
	return n
}

// SyscallCounts returns a copy of the per-syscall invocation counts;
// syscalls never invoked are omitted.
func (k *Kernel) SyscallCounts() map[string]uint64 {
	out := make(map[string]uint64)
	for i := range k.syscalls {
		if n := k.syscalls[i].Load(); n > 0 {
			out[syscallNames[i]] = n
		}
	}
	return out
}

// ResetSyscallCounts zeroes the syscall statistics (benchmark plumbing).
func (k *Kernel) ResetSyscallCounts() {
	for i := range k.syscalls {
		k.syscalls[i].Store(0)
	}
}
