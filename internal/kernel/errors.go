package kernel

import "errors"

// Kernel error values.  These correspond to the error returns of the HiStar
// system-call interface; the user-level Unix library translates them into
// errno values.
var (
	// ErrNoSuchObject is returned when an object ID or container entry does
	// not name a live object.
	ErrNoSuchObject = errors.New("kernel: no such object")

	// ErrNotContainer is returned when a container ID names an object of a
	// different type.
	ErrNotContainer = errors.New("kernel: object is not a container")

	// ErrWrongType is returned when an object has an unexpected type.
	ErrWrongType = errors.New("kernel: wrong object type")

	// ErrLabel is returned when an information-flow check fails.  The kernel
	// deliberately reports no more detail than this: explaining *which*
	// category failed could itself leak information.
	ErrLabel = errors.New("kernel: label check failed")

	// ErrClearance is returned when an operation would exceed the invoking
	// thread's clearance.
	ErrClearance = errors.New("kernel: clearance check failed")

	// ErrQuota is returned when an allocation would exceed an object quota.
	ErrQuota = errors.New("kernel: quota exceeded")

	// ErrFixedQuota is returned when attempting to change the quota of an
	// object whose fixed-quota flag is set, or to link an object whose quota
	// is not yet fixed.
	ErrFixedQuota = errors.New("kernel: fixed-quota constraint violated")

	// ErrImmutable is returned when attempting to modify an immutable object.
	ErrImmutable = errors.New("kernel: object is immutable")

	// ErrInvalid is returned for malformed arguments.
	ErrInvalid = errors.New("kernel: invalid argument")

	// ErrAvoidType is returned when creating an object of a type forbidden
	// by an ancestor container's avoid-types mask.
	ErrAvoidType = errors.New("kernel: object type forbidden in this container")

	// ErrHalted is returned when the invoking thread has been halted.
	ErrHalted = errors.New("kernel: thread halted")

	// ErrCorrupt is returned when an object's persistent storage failed
	// integrity verification (bit rot detected by the single-level store);
	// the Unix library translates it into EIO.
	ErrCorrupt = errors.New("kernel: object storage corrupt")

	// ErrNotFound is returned by lookup helpers when a name has no binding.
	ErrNotFound = errors.New("kernel: not found")

	// ErrExists is returned when creating something that already exists.
	ErrExists = errors.New("kernel: already exists")

	// ErrNoMapping is returned by memory accesses that hit no segment
	// mapping; the user-level page-fault handler sees this.
	ErrNoMapping = errors.New("kernel: no address space mapping")

	// ErrAccess is returned when a mapping exists but its flags do not
	// permit the requested access mode.
	ErrAccess = errors.New("kernel: mapping does not permit access")

	// ErrRootContainer is returned when attempting to unreference or
	// deallocate the root container.
	ErrRootContainer = errors.New("kernel: the root container cannot be deallocated")
)
