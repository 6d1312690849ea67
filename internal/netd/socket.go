package netd

import (
	"encoding/binary"

	"histar/internal/kernel"
	"histar/internal/label"
	"histar/internal/unixlib"
)

// The client side of the socket interface: the Unix library translates
// operations on socket file descriptors into gate calls to the netd process.
// Every call requests the gate's nr/nw ownership (needed to touch the
// device) plus the stack's taint, and drops the ownership again before
// returning — but keeps the taint, because data read from the network really
// does taint the caller.

// Socket is a client handle on one connection through a Daemon.
type Socket struct {
	d    *Daemon
	id   uint32
	proc *unixlib.Process
}

// gateCall enters the daemon's socket gate with the conventional labels and
// restores the caller's ownership set afterwards.
func gateCall(d *Daemon, p *unixlib.Process, args []byte) ([]byte, error) {
	tc := p.TC
	lbl, err := tc.SelfLabel()
	if err != nil {
		return nil, err
	}
	clr, err := tc.SelfClearance()
	if err != nil {
		return nil, err
	}
	taintLevel := max(lbl.Get(d.Taint), label.L2)
	if lbl.Owns(d.Taint) {
		// A category owner (e.g. the VPN client, for i) is never forced to
		// taint itself: ownership means the kernel ignores the category.
		taintLevel = label.Star
	}
	req := kernel.GateRequest{
		Label: lbl.With(d.Nr, label.Star).With(d.Nw, label.Star).
			With(d.Taint, taintLevel),
		Clearance: clr,
		Verify:    lbl,
		Args:      args,
	}
	out, gerr := tc.GateEnter(d.Gate, req)
	// Drop the acquired nr/nw ownership; keep the taint.
	after, err := tc.SelfLabel()
	if err == nil {
		_ = tc.SelfSetLabel(after.With(d.Nr, label.L1).With(d.Nw, label.L1))
	}
	if gerr != nil {
		return nil, gerr
	}
	if len(out) < 1 || out[0] != 0 {
		return nil, ErrNoRoute
	}
	return out[1:], nil
}

// ensureTaint raises the calling process's label to the stack's taint level
// before it observes received data; the kernel has no way to check reads of
// netd's internal buffers, so the client library applies the taint exactly
// where the real system's mapped-segment reads would force it.
func ensureTaint(d *Daemon, p *unixlib.Process) error {
	tc := p.TC
	lbl, err := tc.SelfLabel()
	if err != nil {
		return err
	}
	if lbl.Get(d.Taint) >= label.L2 || lbl.Owns(d.Taint) {
		return nil
	}
	return tc.SelfSetLabel(lbl.With(d.Taint, label.L2))
}

// Dial opens a connection to a registered remote address.
func Dial(d *Daemon, p *unixlib.Process, addr string) (*Socket, error) {
	out, err := gateCall(d, p, append([]byte{opDial}, addr...))
	if err != nil {
		return nil, err
	}
	if len(out) < 4 {
		return nil, ErrBadReply
	}
	return &Socket{d: d, id: binary.LittleEndian.Uint32(out[:4]), proc: p}, nil
}

// Send transmits request bytes and marks the end of the request (the remote
// handler runs once the push frame arrives).
func (s *Socket) Send(data []byte) error {
	args := make([]byte, 5+len(data))
	args[0] = opSend
	binary.LittleEndian.PutUint32(args[1:5], s.id)
	copy(args[5:], data)
	_, err := gateCall(s.d, s.proc, args)
	return err
}

// Recv returns up to n bytes of response data via a gate call, blocking
// until data arrives; it returns an empty slice at end of stream.  Receiving
// network data taints the caller with the stack's taint category.
func (s *Socket) Recv(n int) ([]byte, error) {
	if err := ensureTaint(s.d, s.proc); err != nil {
		return nil, err
	}
	args := make([]byte, 13)
	args[0] = opRecv
	binary.LittleEndian.PutUint32(args[1:5], s.id)
	binary.LittleEndian.PutUint64(args[5:13], uint64(n))
	return gateCall(s.d, s.proc, args)
}

// Close tears down the connection.
func (s *Socket) Close() error {
	args := make([]byte, 5)
	args[0] = opClose
	binary.LittleEndian.PutUint32(args[1:5], s.id)
	_, err := gateCall(s.d, s.proc, args)
	return err
}
