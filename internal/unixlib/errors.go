package unixlib

import "errors"

// Errors returned by the Unix emulation library.  They correspond to the
// errno values the real library hands back to uClibc.
var (
	// ErrNotExist mirrors ENOENT.
	ErrNotExist = errors.New("unixlib: no such file or directory")
	// ErrExist mirrors EEXIST.
	ErrExist = errors.New("unixlib: file exists")
	// ErrNotDir mirrors ENOTDIR.
	ErrNotDir = errors.New("unixlib: not a directory")
	// ErrIsDir mirrors EISDIR.
	ErrIsDir = errors.New("unixlib: is a directory")
	// ErrPermission mirrors EACCES/EPERM: a kernel label check refused the
	// operation.
	ErrPermission = errors.New("unixlib: permission denied")
	// ErrBadFD mirrors EBADF.
	ErrBadFD = errors.New("unixlib: bad file descriptor")
	// ErrNotEmpty mirrors ENOTEMPTY.
	ErrNotEmpty = errors.New("unixlib: directory not empty")
	// ErrInvalid mirrors EINVAL.
	ErrInvalid = errors.New("unixlib: invalid argument")
	// ErrNoProgram is returned by exec/spawn for an unregistered binary.
	ErrNoProgram = errors.New("unixlib: no such program")
	// ErrPipeClosed is returned when writing to a pipe whose read end is
	// gone (the library's SIGPIPE).
	ErrPipeClosed = errors.New("unixlib: broken pipe")
	// ErrIO mirrors EIO: the object's persistent storage failed integrity
	// verification (the store detected bit rot and quarantined it).
	ErrIO = errors.New("unixlib: input/output error")
)
