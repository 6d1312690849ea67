package kernel

import (
	"histar/internal/label"
)

// The kernel network API consists of three system calls: get the MAC
// address of the card, provide a transmit or receive packet buffer, and wait
// for a packet to be received or transmitted (Section 4.1).  There is no
// dynamic packet allocation or queuing in the kernel.  In this reproduction
// the device hands transmitted frames to a callback (wired to the simulated
// network) and frames injected by the simulation are delivered into the
// receive buffers user code has supplied.

// DeviceCreate creates a network device object in container d.  It is a
// bootstrap operation: the real kernel discovers devices at boot and the
// administrator's startup code labels them (typically {nr3, nw0, i2, 1}).
func (k *Kernel) DeviceCreate(d ID, lbl label.Label, mac [6]byte, descrip string) (ID, error) {
	cont, err := k.lookupContainer(d)
	if err != nil {
		return NilID, err
	}
	if !label.ValidObjectLabel(lbl) {
		return NilID, ErrInvalid
	}
	dev := &device{
		header: header{
			id:      k.newID(),
			objType: ObjDevice,
			lbl:     label.Intern(lbl),
			quota:   64 * 1024,
			descrip: truncDescrip(descrip),
			refs:    1,
		},
		mac:    mac,
		waitCh: make(chan struct{}, 1),
	}
	dev.usage = dev.footprint()
	cont.mu.Lock()
	if !liveLocked(cont) {
		cont.mu.Unlock()
		return NilID, ErrNoSuchObject
	}
	if err := k.charge(cont, dev.quota); err != nil {
		cont.mu.Unlock()
		return NilID, err
	}
	k.insert(dev)
	cont.link(dev.id)
	cont.mu.Unlock()
	return dev.id, nil
}

// SetDeviceTransmitHook wires the device's transmit path to the simulated
// network; pkt slices passed to the hook are owned by the callee.
func (k *Kernel) SetDeviceTransmitHook(dev ID, hook func(pkt []byte)) error {
	o, err := k.lookup(dev)
	if err != nil {
		return err
	}
	d, ok := o.(*device)
	if !ok {
		return ErrWrongType
	}
	d.mu.Lock()
	d.txNotify = hook
	d.mu.Unlock()
	return nil
}

// DeviceInject delivers an inbound frame to the device, as if it arrived
// from the wire.  Called by the network simulation.
func (k *Kernel) DeviceInject(dev ID, pkt []byte) error {
	o, err := k.lookup(dev)
	if err != nil {
		return err
	}
	d, ok := o.(*device)
	if !ok {
		return ErrWrongType
	}
	d.mu.Lock()
	if !liveLocked(d) {
		d.mu.Unlock()
		return ErrNoSuchObject
	}
	d.rxQueue = append(d.rxQueue, append([]byte(nil), pkt...))
	ch := d.waitCh
	d.mu.Unlock()
	select {
	case ch <- struct{}{}:
	default:
	}
	return nil
}

// DeviceMAC returns the device's MAC address.  The invoking thread must be
// able to observe the device object.
func (tc *ThreadCall) DeviceMAC(ce CEnt) ([6]byte, error) {
	ctx, err := tc.enter(scNetMACAddr)
	if err != nil {
		return [6]byte{}, err
	}
	_, d, err := tc.deviceForRead(ctx, ce)
	if err != nil {
		return [6]byte{}, err
	}
	return d.mac, nil
}

// DeviceTransmit hands a frame to the device for transmission.  The invoking
// thread must be able to modify the device object; with the conventional
// device label {nr3, nw0, i2, 1} that means only threads owning nw (netd)
// and not tainted beyond i2 can transmit, which is exactly what keeps
// tainted data off the network.
func (tc *ThreadCall) DeviceTransmit(ce CEnt, pkt []byte) error {
	ctx, err := tc.enter(scNetTx)
	if err != nil {
		return err
	}
	cont, d, err := tc.deviceForWrite(ctx, ce)
	if err != nil {
		return err
	}
	ls := lockOrdered(objLock{cont, false}, objLock{d, false})
	verr := cont.verifyLinked(d.id)
	if verr == nil && !liveLocked(d) {
		verr = ErrNoSuchObject
	}
	hook := d.txNotify
	ls.unlock()
	if verr != nil {
		return verr
	}
	frame := append([]byte(nil), pkt...)
	if hook != nil {
		hook(frame)
	}
	return nil
}

// DeviceReceive removes and returns the next received frame, or (nil, false)
// when none is pending.  The invoking thread must be able to observe the
// device; the frame it receives is, by the device's label, tainted i2.
func (tc *ThreadCall) DeviceReceive(ce CEnt) ([]byte, bool, error) {
	ctx, err := tc.enter(scNetRx)
	if err != nil {
		return nil, false, err
	}
	cont, d, err := tc.deviceForRead(ctx, ce)
	if err != nil {
		return nil, false, err
	}
	ls := lockOrdered(objLock{cont, false}, objLock{d, true})
	defer ls.unlock()
	if err := verifyEntryLive(cont, d); err != nil {
		return nil, false, err
	}
	if len(d.rxQueue) == 0 {
		return nil, false, nil
	}
	pkt := d.rxQueue[0]
	d.rxQueue = d.rxQueue[1:]
	return pkt, true, nil
}

// DeviceWait blocks until a frame is available to receive (or one has been
// transmitted, in the real interface); it returns immediately if the receive
// queue is non-empty.
func (tc *ThreadCall) DeviceWait(ce CEnt) error {
	for {
		ctx, err := tc.enter(scNetWait)
		if err != nil {
			return err
		}
		_, d, err := tc.deviceForRead(ctx, ce)
		if err != nil {
			return err
		}
		d.mu.RLock()
		if !liveLocked(d) {
			d.mu.RUnlock()
			return ErrNoSuchObject
		}
		if len(d.rxQueue) > 0 {
			d.mu.RUnlock()
			return nil
		}
		ch := d.waitCh
		d.mu.RUnlock()
		<-ch
	}
}

// deviceForRead resolves ce to a device the invoking thread may observe;
// device labels are immutable, so no locks are held.
func (tc *ThreadCall) deviceForRead(ctx tctx, ce CEnt) (*container, *device, error) {
	cont, obj, err := tc.k.peek(ctx, ce)
	if err != nil {
		return nil, nil, err
	}
	d, ok := obj.(*device)
	if !ok {
		return nil, nil, ErrWrongType
	}
	if !tc.k.canObserveT(ctx.t, ctx.lbl, d.lbl) {
		return nil, nil, ErrLabel
	}
	return cont, d, nil
}

func (tc *ThreadCall) deviceForWrite(ctx tctx, ce CEnt) (*container, *device, error) {
	cont, obj, err := tc.k.peek(ctx, ce)
	if err != nil {
		return nil, nil, err
	}
	d, ok := obj.(*device)
	if !ok {
		return nil, nil, ErrWrongType
	}
	if !tc.k.canModifyT(ctx.t, ctx.lbl, d.lbl) {
		return nil, nil, ErrLabel
	}
	return cont, d, nil
}
