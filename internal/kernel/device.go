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
	cont, err := k.admit(nil, d, Mask(ObjDevice))
	if err != nil {
		return NilID, err
	}
	if !label.ValidObjectLabel(lbl) {
		return NilID, ErrInvalid
	}
	return k.create(cont, &device{
		header: k.newHeader(ObjDevice, lbl, 64*1024, descrip),
		mac:    mac,
		waitCh: make(chan struct{}, 1),
	})
}

// SetDeviceTransmitHook wires the device's transmit path to the simulated
// network; pkt slices passed to the hook are owned by the callee.
func (k *Kernel) SetDeviceTransmitHook(dev ID, hook func(pkt []byte)) error {
	d, err := lookupAs[*device](k, dev)
	if err != nil {
		return err
	}
	d.mu.Lock()
	d.txNotify = hook
	d.mu.Unlock()
	return nil
}

// DeviceInject delivers an inbound frame to the device, as if it arrived
// from the wire.  Called by the network simulation.
func (k *Kernel) DeviceInject(dev ID, pkt []byte) error {
	d, err := lookupAs[*device](k, dev)
	if err != nil {
		return err
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
	_, d, err := resolve[*device](tc.k, &ctx, ce, accObserve)
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
	d, ls, err := open[*device](tc.k, &ctx, ce, accModify, false)
	if err != nil {
		return err
	}
	hook := d.txNotify
	ls.unlock()
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
	d, ls, err := open[*device](tc.k, &ctx, ce, accObserve, true)
	if err != nil {
		return nil, false, err
	}
	defer ls.unlock()
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
		_, d, err := resolve[*device](tc.k, &ctx, ce, accObserve)
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
