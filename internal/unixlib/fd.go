package unixlib

import (
	"encoding/binary"
	"sync"

	"histar/internal/kernel"
	"histar/internal/label"
)

// File descriptors (Section 5.3): all descriptor state — seek position, open
// flags, reference count — lives in a file descriptor segment.  Descriptor
// numbers correspond to virtual addresses in the real library; here the
// process keeps a table from descriptor number to the descriptor segment and
// the object it refers to.  Multiple processes share a descriptor by mapping
// the same segment.  A descriptor exists to be shared, so a call that shares
// nothing opens none: ReadFile, WriteFile and FsyncPath resolve the path and
// act on the file segment itself.

// fdSegment layout.
const (
	fdSeekOff  = 0
	fdFlagsOff = 8
	fdRefsOff  = 16
	fdSegSize  = 64
)

// Open flags.
const (
	ORead  = 1 << iota // open for reading
	OWrite             // open for writing
	OAppend
)

// FD is a process's handle on an open file, directory, pipe, or socket.
type FD struct {
	Num int
	// seekMu serializes read-modify-write cycles on the seek position in the
	// descriptor segment.  It is a pointer so that the FD struct copies made
	// by fork/spawn (which share the descriptor segment) share the lock too —
	// per-descriptor, not per-process, exactly like the segment itself.
	seekMu *sync.Mutex
	// Seg is the file descriptor segment holding seek position and flags.
	Seg kernel.CEnt
	// File is the file segment (for regular files).
	File kernel.CEnt
	// Dir is the directory container (for directories).
	Dir kernel.ID
	// Pipe is non-nil for pipe descriptors.
	Pipe *Pipe
	// Socket is non-nil for network sockets (attached by package netd).
	Socket interface{}
	// WriteEnd marks the write side of a pipe.
	WriteEnd bool
	// Path is the path the descriptor was opened with (diagnostics).
	Path string
}

// fdLabel returns the label protecting descriptor and pipe segments: the
// owning user's {ur3, uw0, 1} when the process runs as a user (so related
// processes of the same user can share descriptors across fork), otherwise
// the process's own {pr3, pw0, 1}.
func (p *Process) fdLabel() label.Label {
	var l label.Label
	if p.User != nil {
		l = label.New(label.L1,
			label.P(p.User.Ur, label.L3), label.P(p.User.Uw, label.L0))
	} else {
		l = label.New(label.L1,
			label.P(p.Pr, label.L3), label.P(p.Pw, label.L0))
	}
	return p.withThreadTaint(l)
}

// newFDSegment allocates a descriptor segment in the process container.
func (p *Process) newFDSegment(flags uint64) (kernel.CEnt, error) {
	lbl := p.fdLabel()
	seg, err := p.TC.SegmentCreate(p.ProcCt, lbl, "fd segment", fdSegSize)
	if err != nil {
		return kernel.CEnt{}, mapKernelErr(err)
	}
	ce := kernel.CEnt{Container: p.ProcCt, Object: seg}
	var buf [24]byte
	binary.LittleEndian.PutUint64(buf[fdFlagsOff:], flags)
	binary.LittleEndian.PutUint64(buf[fdRefsOff:], 1)
	if err := p.TC.SegmentWrite(ce, 0, buf[:]); err != nil {
		return kernel.CEnt{}, mapKernelErr(err)
	}
	return ce, nil
}

func (p *Process) fdSeek(fd *FD) (int64, error) {
	buf, err := p.TC.SegmentRead(fd.Seg, fdSeekOff, 8)
	if err != nil {
		return 0, mapKernelErr(err)
	}
	return int64(binary.LittleEndian.Uint64(buf)), nil
}

func (p *Process) fdSetSeek(fd *FD, pos int64) error {
	var buf [8]byte
	binary.LittleEndian.PutUint64(buf[:], uint64(pos))
	return mapKernelErr(p.TC.SegmentWrite(fd.Seg, fdSeekOff, buf[:]))
}

func (p *Process) fdFlags(fd *FD) (uint64, error) {
	buf, err := p.TC.SegmentRead(fd.Seg, fdFlagsOff, 8)
	if err != nil {
		return 0, mapKernelErr(err)
	}
	return binary.LittleEndian.Uint64(buf), nil
}

// allocFD installs an FD in the process table and returns its number.
func (p *Process) allocFD(fd *FD) int {
	if fd.seekMu == nil {
		fd.seekMu = new(sync.Mutex)
	}
	p.fdMu.Lock()
	defer p.fdMu.Unlock()
	num := 0
	for {
		if _, used := p.fds[num]; !used {
			break
		}
		num++
	}
	fd.Num = num
	p.fds[num] = fd
	return num
}

// FDTable returns the numbers of the process's open descriptors.
func (p *Process) FDTable() []int {
	p.fdMu.RLock()
	defer p.fdMu.RUnlock()
	out := make([]int, 0, len(p.fds))
	for n := range p.fds {
		out = append(out, n)
	}
	return out
}

func (p *Process) getFD(num int) (*FD, error) {
	p.fdMu.RLock()
	defer p.fdMu.RUnlock()
	fd, ok := p.fds[num]
	if !ok {
		return nil, ErrBadFD
	}
	return fd, nil
}

// ---------------------------------------------------------------------------
// Pipes: a shared ring-buffer segment plus futex wakeups (the IPC benchmark
// path).  The kernel provides only shared memory and futexes; everything
// else is library convention.
// ---------------------------------------------------------------------------

// Pipe buffer segment layout.  Each end owns one 8-byte word: the count of
// bytes it has consumed (read end) or produced (write end) in the low seven
// bytes, and its closed flag in the top byte.  The two parts are stored by
// separate SegmentWrites, so a close never clobbers a concurrent position
// update or the reverse.  A blocked reader futex-waits on the write end's
// word and a blocked writer on the read end's — the word the *peer* changes,
// whether by publishing, consuming or closing — so a change that lands
// between the emptiness (or fullness) check and the wait makes the wait
// return at once instead of being lost.
const (
	pipeRdWordOff  = 8
	pipeWrWordOff  = 16
	pipeClosedByte = 7 // byte of an end's word holding its closed flag
	pipePosMask    = 1<<(8*pipeClosedByte) - 1
	pipeDataOff    = 64
	pipeBufferSize = 64 * 1024
)

// Pipe is one end-pair of a Unix pipe implemented on a shared segment.
type Pipe struct {
	Seg kernel.CEnt
}

// Pipe creates a unidirectional pipe and returns (readFD, writeFD).
func (p *Process) Pipe() (int, int, error) {
	lbl := p.fdLabel()
	seg, err := p.TC.SegmentCreate(p.ProcCt, lbl, "pipe buffer", pipeDataOff+pipeBufferSize)
	if err != nil {
		return -1, -1, mapKernelErr(err)
	}
	pipe := &Pipe{Seg: kernel.CEnt{Container: p.ProcCt, Object: seg}}
	rseg, err := p.newFDSegment(ORead)
	if err != nil {
		return -1, -1, err
	}
	wseg, err := p.newFDSegment(OWrite)
	if err != nil {
		return -1, -1, err
	}
	r := p.allocFD(&FD{Seg: rseg, Pipe: pipe, Path: "pipe:r"})
	w := p.allocFD(&FD{Seg: wseg, Pipe: pipe, WriteEnd: true, Path: "pipe:w"})
	return r, w, nil
}

// pipeWords reads both ends' words in one call: the read end's, then the
// write end's.  Each end's holder writes its word, so a pair out of step — the
// write end behind the read end or over a buffer ahead — is ErrInvalid.
func (p *Process) pipeWords(pipe *Pipe) (rdWord, wrWord uint64, err error) {
	buf, err := p.TC.SegmentRead(pipe.Seg, pipeRdWordOff, 16)
	if err != nil {
		return 0, 0, mapKernelErr(err)
	}
	if len(buf) == 16 {
		rdWord, wrWord = binary.LittleEndian.Uint64(buf), binary.LittleEndian.Uint64(buf[8:])
	}
	if len(buf) < 16 || wrWord&pipePosMask-rdWord&pipePosMask > pipeBufferSize {
		return 0, 0, ErrInvalid
	}
	return rdWord, wrWord, nil
}

// pipeRuns calls move on the runs of the buffer that n ≤ pipeBufferSize bytes
// from position pos occupy: at most two, split where the ring wraps.
func pipeRuns(pos, n uint64, move func(off, from, to int) error) error {
	at, head := pos%pipeBufferSize, min(n, pipeBufferSize-pos%pipeBufferSize)
	if err := move(pipeDataOff+int(at), 0, int(head)); err != nil || head == n {
		return err
	}
	return move(pipeDataOff, int(head), int(n))
}

// pipeSetPos stores the position part of an end's word, leaving its closed
// flag alone.
func (p *Process) pipeSetPos(pipe *Pipe, off uint64, pos uint64) error {
	var buf [8]byte
	binary.LittleEndian.PutUint64(buf[:], pos)
	return mapKernelErr(p.TC.SegmentWrite(pipe.Seg, int(off), buf[:pipeClosedByte]))
}

// pipeWrite appends data to the pipe, blocking while the buffer is full.
func (p *Process) pipeWrite(pipe *Pipe, data []byte) (int, error) {
	written := 0
	for written < len(data) {
		rdWord, wrWord, err := p.pipeWords(pipe)
		if err != nil {
			return written, err
		}
		if rdWord > pipePosMask {
			return written, ErrPipeClosed
		}
		wr := wrWord & pipePosMask
		space := uint64(pipeBufferSize) - (wr - rdWord)
		if space == 0 {
			// Wait for the reader to drain (or close): either changes its
			// word from the value the fullness check was made against.
			if err := p.TC.FutexWait(pipe.Seg, pipeRdWordOff, rdWord); err != nil {
				return written, mapKernelErr(err)
			}
			continue
		}
		n := min(uint64(len(data)-written), space)
		run := data[written:]
		if err := pipeRuns(wr, n, func(off, from, to int) error {
			return mapKernelErr(p.TC.SegmentWrite(pipe.Seg, off, run[from:to]))
		}); err != nil {
			return written, err
		}
		if err := p.pipeSetPos(pipe, pipeWrWordOff, wr+n); err != nil {
			return written, err
		}
		written += int(n)
		// Wake a blocked reader.
		if _, err := p.TC.FutexWake(pipe.Seg, pipeWrWordOff, 1); err != nil {
			return written, mapKernelErr(err)
		}
	}
	return written, nil
}

// pipeRead reads up to len(buf) bytes, blocking until data is available or
// the write end is closed.
func (p *Process) pipeRead(pipe *Pipe, buf []byte) (int, error) {
	for {
		rdWord, wrWord, err := p.pipeWords(pipe)
		if err != nil {
			return 0, err
		}
		rd, wr := rdWord&pipePosMask, wrWord&pipePosMask
		if rd == wr {
			if wrWord > pipePosMask {
				return 0, nil // EOF
			}
			// Wait for the writer to publish (or close): either changes its
			// word from the value the emptiness check was made against.
			if err := p.TC.FutexWait(pipe.Seg, pipeWrWordOff, wrWord); err != nil {
				return 0, mapKernelErr(err)
			}
			continue
		}
		n := min(wr-rd, uint64(len(buf)))
		if err := pipeRuns(rd, n, func(off, from, to int) error {
			b, err := p.TC.SegmentRead(pipe.Seg, off, to-from)
			if err == nil && copy(buf[from:to], b) < to-from {
				err = ErrInvalid // the buffer was cut short under the pipe
			}
			return mapKernelErr(err)
		}); err != nil {
			return 0, err
		}
		if err := p.pipeSetPos(pipe, pipeRdWordOff, rd+n); err != nil {
			return 0, err
		}
		// Wake a blocked writer.
		if _, err := p.TC.FutexWake(pipe.Seg, pipeRdWordOff, 1); err != nil {
			return int(n), mapKernelErr(err)
		}
		return int(n), nil
	}
}

// closePipeEnd records that one end of the pipe is closed and wakes the
// peers blocked on that end's word.
func (p *Process) closePipeEnd(fd *FD) error {
	word := uint64(pipeRdWordOff)
	if fd.WriteEnd {
		word = pipeWrWordOff
	}
	if err := p.TC.SegmentWrite(fd.Pipe.Seg, int(word+pipeClosedByte), []byte{1}); err != nil {
		return mapKernelErr(err)
	}
	_, err := p.TC.FutexWake(fd.Pipe.Seg, word, 16)
	return mapKernelErr(err)
}
