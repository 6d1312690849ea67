// Package netd is the user-level network stack daemon (Section 5.7): the
// protocol stack runs in an ordinary process that owns the network device's
// nr/nw categories and is tainted i2 by everything it reads from the wire.
// It exposes a single service gate through which client processes perform
// socket operations; because the gate carries the i2 taint, every client
// that talks to the network becomes tainted i2, and because transmitting
// requires writing the device object, a thread tainted in any other secrecy
// category (for instance ClamAV's v) simply cannot send.
//
// A compromised netd can therefore mount only the equivalent of an
// eavesdropping or packet-tampering attack; it cannot leak data protected by
// categories it does not own.
package netd

import (
	"encoding/binary"
	"errors"
	"sync"

	"histar/internal/kernel"
	"histar/internal/label"
	"histar/internal/netsim"
	"histar/internal/unixlib"
)

// Errors.
var (
	ErrNoRoute  = errors.New("netd: no such remote host")
	ErrBadReply = errors.New("netd: malformed daemon reply")
)

// RemoteHandler is the code running on a simulated remote host: it receives
// the client's request bytes and returns the response body.
type RemoteHandler func(request []byte) []byte

// Frame types on the simulated wire.
const (
	frOpen = iota
	frData
	frPush // end of request; remote runs its handler
	frRespData
	frRespEnd
)

// Options configure a network daemon instance.
type Options struct {
	// Link connects the device to the remote world; if nil a standalone
	// link with PaperEthernet parameters and no clock is created.
	Link *netsim.Link
}

// Daemon is one running network stack.
type Daemon struct {
	sys  *unixlib.System
	proc *unixlib.Process
	dev  kernel.CEnt
	link *netsim.Link

	// Nr and Nw protect the device; Taint is the category that taints
	// everything received ("i" or "v").
	Nr, Nw, Taint label.Category

	// Gate is the socket service gate.
	Gate kernel.CEnt

	mu      sync.Mutex
	remotes map[string]RemoteHandler
	conns   map[uint32]*conn
	nextID  uint32

	// remote is the remote world's side of each open connection: the
	// request bytes it has received so far.
	remote struct {
		sync.Mutex
		conns map[uint32]*remoteConnState
	}
}

type conn struct {
	id     uint32
	addr   string
	rxBuf  []byte
	closed bool
	eof    bool
	cond   *sync.Cond
}

// New starts a network daemon on sys.  The daemon allocates the nr/nw/taint
// categories, creates the (simulated) network device labeled
// {nr3, nw0, taint2, 1} and creates the socket service gate.  It starts no
// goroutine: the link delivers synchronously, so a reply's frames are in the
// device's receive queue when the send that provoked it returns, and the
// receive call drains them (opRecv).
func New(sys *unixlib.System, opts Options) (*Daemon, error) {
	proc, err := sys.NewInitProcess("")
	if err != nil {
		return nil, err
	}
	d := &Daemon{
		sys:     sys,
		proc:    proc,
		link:    opts.Link,
		remotes: make(map[string]RemoteHandler),
		conns:   make(map[uint32]*conn),
	}
	d.remote.conns = make(map[uint32]*remoteConnState)
	if d.link == nil {
		d.link = netsim.NewLink(netsim.PaperEthernet(), nil)
	}
	tc := proc.TC
	if d.Nr, err = tc.CategoryCreate(); err != nil {
		return nil, err
	}
	if d.Nw, err = tc.CategoryCreate(); err != nil {
		return nil, err
	}
	// The receive-taint category is owned by the machine's bootstrap (the
	// administrator decides who may untaint network-derived data, e.g. after
	// a virus scan) — not by netd, which deliberately cannot bypass it.
	if d.Taint, err = sys.InitThread().CategoryCreate(); err != nil {
		return nil, err
	}
	// The network device: {nr3, nw0, taint2, 1}.
	devLbl := label.New(label.L1,
		label.P(d.Nr, label.L3), label.P(d.Nw, label.L0), label.P(d.Taint, label.L2))
	devID, err := sys.Kern.DeviceCreate(sys.Kern.RootContainer(), devLbl, [6]byte{0x52, 0x54, 0, 0x12, 0x34, 0x56}, "eepro100")
	if err != nil {
		return nil, err
	}
	d.dev = kernel.CEnt{Container: sys.Kern.RootContainer(), Object: devID}
	// Wire the device to the link: transmit goes A→B, the remote world
	// injects B→A back into the device.
	sys.Kern.SetDeviceTransmitHook(devID, func(pkt []byte) { d.link.SendAtoB(pkt) })
	d.link.Attach(
		netsim.EndpointFunc(func(frame []byte) { _ = sys.Kern.DeviceInject(devID, frame) }),
		netsim.EndpointFunc(d.remoteDeliver),
	)

	// The socket service gate: label {nr⋆, nw⋆, taint2, 1}, so every caller
	// acquires the stack's taint along with the (temporary) device
	// privileges — talking to the network at all marks a process as carrying
	// network-derived information, exactly as in Figure 11.  The gate is
	// created before the daemon taints itself: once tainted, the daemon could
	// no longer write its own untainted process container.
	gateLbl := label.New(label.L1,
		label.P(d.Nr, label.Star), label.P(d.Nw, label.Star), label.P(d.Taint, label.L2))
	gid, err := tc.GateCreate(proc.ProcCt, kernel.GateSpec{
		Label:     gateLbl,
		Clearance: label.New(label.L2),
		Descrip:   "netd socket gate",
		Entry:     d.socketGateEntry,
	})
	if err != nil {
		return nil, err
	}
	d.Gate = kernel.CEnt{Container: proc.ProcCt, Object: gid}

	// Taint the daemon's thread with {taint2} — it handles wire data — while
	// keeping ownership of nr and nw.
	lbl, _ := tc.SelfLabel()
	if err := tc.SelfSetLabel(lbl.With(d.Taint, label.L2)); err != nil {
		return nil, err
	}
	return d, nil
}

// RegisterRemote installs a simulated remote host reachable at addr.
func (d *Daemon) RegisterRemote(addr string, handler RemoteHandler) {
	d.mu.Lock()
	defer d.mu.Unlock()
	d.remotes[addr] = handler
}

// ---------------------------------------------------------------------------
// The remote world (endpoint B of the link).
// ---------------------------------------------------------------------------

type remoteConnState struct {
	addr string
	req  []byte
}

// remoteDeliver handles frames arriving at the remote side of the link.
func (d *Daemon) remoteDeliver(frame []byte) {
	if len(frame) < 5 {
		return
	}
	id := binary.LittleEndian.Uint32(frame[:4])
	typ := frame[4]
	payload := frame[5:]

	d.remote.Lock()
	st := d.remote.conns[id]
	switch typ {
	case frOpen:
		d.remote.conns[id] = &remoteConnState{addr: string(payload)}
		d.remote.Unlock()
		return
	case frData:
		if st != nil {
			st.req = append(st.req, payload...)
		}
		d.remote.Unlock()
		return
	case frPush:
		if st == nil {
			d.remote.Unlock()
			return
		}
		delete(d.remote.conns, id)
		d.remote.Unlock()
		d.mu.Lock()
		handler := d.remotes[st.addr]
		d.mu.Unlock()
		var resp []byte
		if handler != nil {
			resp = handler(st.req)
		}
		d.sendResponse(id, resp)
		return
	default:
		d.remote.Unlock()
	}
}

// sendResponse streams a response back over the link in MTU-sized frames.
func (d *Daemon) sendResponse(id uint32, resp []byte) {
	mtu := d.link.MTU() - 5
	for off := 0; off < len(resp); off += mtu {
		end := off + mtu
		if end > len(resp) {
			end = len(resp)
		}
		d.link.SendBtoA(encodeFrame(id, frRespData, resp[off:end]))
	}
	d.link.SendBtoA(encodeFrame(id, frRespEnd, nil))
}

func encodeFrame(id uint32, typ byte, payload []byte) []byte {
	frame := make([]byte, 5+len(payload))
	binary.LittleEndian.PutUint32(frame[:4], id)
	frame[4] = typ
	copy(frame[5:], payload)
	return frame
}

// ---------------------------------------------------------------------------
// The daemon side: receive loop and socket gate.
// ---------------------------------------------------------------------------

// drain empties the device's receive queue on the calling thread, which
// holds the socket gate's privileges and taint, demultiplexing the frames
// into connection buffers.
func (d *Daemon) drain(tc *kernel.ThreadCall) {
	for {
		frame, ok, err := tc.DeviceReceive(d.dev)
		if err != nil || !ok {
			return
		}
		d.handleInbound(frame)
	}
}

func (d *Daemon) handleInbound(frame []byte) {
	if len(frame) < 5 {
		return
	}
	id := binary.LittleEndian.Uint32(frame[:4])
	typ := frame[4]
	payload := frame[5:]
	d.mu.Lock()
	c := d.conns[id]
	d.mu.Unlock()
	if c == nil {
		return
	}
	c.cond.L.Lock()
	switch typ {
	case frRespData:
		c.rxBuf = append(c.rxBuf, payload...)
	case frRespEnd:
		c.eof = true
	}
	c.cond.Broadcast()
	c.cond.L.Unlock()
}

// socket gate operations, encoded in the first byte of Args.
const (
	opDial = iota
	opSend
	opRecv
	opClose
)

// socketGateEntry runs on the calling thread, with the gate's nr/nw
// ownership and taint.  The reply's first byte is 0 for success.
func (d *Daemon) socketGateEntry(call *kernel.GateCallCtx) []byte {
	args := call.Args
	if len(args) < 1 {
		return []byte{1}
	}
	op := args[0]
	switch op {
	case opDial:
		addr := string(args[1:])
		d.mu.Lock()
		if _, ok := d.remotes[addr]; !ok {
			d.mu.Unlock()
			return []byte{1}
		}
		d.nextID++
		id := d.nextID
		c := &conn{id: id, addr: addr}
		c.cond = sync.NewCond(&sync.Mutex{})
		d.conns[id] = c
		d.mu.Unlock()
		// Transmit the open frame through the device: this is where the
		// kernel's label check blocks tainted callers.
		if err := call.TC.DeviceTransmit(d.dev, encodeFrame(id, frOpen, []byte(addr))); err != nil {
			d.mu.Lock()
			delete(d.conns, id)
			d.mu.Unlock()
			return []byte{1}
		}
		var out [5]byte
		binary.LittleEndian.PutUint32(out[1:], id)
		return out[:]
	case opSend:
		if len(args) < 5 {
			return []byte{1}
		}
		id := binary.LittleEndian.Uint32(args[1:5])
		data := args[5:]
		mtu := d.link.MTU() - 5
		for off := 0; off < len(data); off += mtu {
			end := off + mtu
			if end > len(data) {
				end = len(data)
			}
			if err := call.TC.DeviceTransmit(d.dev, encodeFrame(id, frData, data[off:end])); err != nil {
				return []byte{1}
			}
		}
		if err := call.TC.DeviceTransmit(d.dev, encodeFrame(id, frPush, nil)); err != nil {
			return []byte{1}
		}
		return []byte{0}
	case opRecv:
		if len(args) < 13 {
			return []byte{1}
		}
		id := binary.LittleEndian.Uint32(args[1:5])
		want := int(binary.LittleEndian.Uint64(args[5:13]))
		d.mu.Lock()
		c := d.conns[id]
		d.mu.Unlock()
		if c == nil || want < 0 {
			return []byte{1}
		}
		// Another caller's drain may hold this connection's frames: it
		// appends them and wakes the wait below.
		d.drain(call.TC)
		c.cond.L.Lock()
		for len(c.rxBuf) == 0 && !c.eof && !c.closed {
			c.cond.Wait()
		}
		n := len(c.rxBuf)
		if n > want {
			n = want
		}
		out := make([]byte, 1+n)
		copy(out[1:], c.rxBuf[:n])
		c.rxBuf = c.rxBuf[n:]
		c.cond.L.Unlock()
		return out
	case opClose:
		if len(args) < 5 {
			return []byte{1}
		}
		id := binary.LittleEndian.Uint32(args[1:5])
		d.mu.Lock()
		if c := d.conns[id]; c != nil {
			c.cond.L.Lock()
			c.closed = true
			c.cond.Broadcast()
			c.cond.L.Unlock()
			delete(d.conns, id)
		}
		d.mu.Unlock()
		return []byte{0}
	default:
		return []byte{1}
	}
}
