// Package netsim simulates the Ethernet segment the evaluation machines sit
// on: a link with configurable bandwidth connecting the HiStar machine's
// network device to simulated remote hosts (the wget origin server, the VPN
// peer, web clients).  Transfer time is charged to a
// vclock.Clock so the "can HiStar saturate a 100 Mbps link" experiment
// (Figure 13) runs in milliseconds of real time.
package netsim

import (
	"sync"
	"time"

	"histar/internal/vclock"
)

// LinkParams describe a simulated link.
type LinkParams struct {
	// BandwidthBitsPerSec is the link rate (default 100 Mbps, the paper's
	// Ethernet).
	BandwidthBitsPerSec float64
	// MTU is the maximum frame size (default 1500).
	MTU int
}

// PaperEthernet returns the evaluation network: 100 Mbps switched Ethernet.
func PaperEthernet() LinkParams {
	return LinkParams{BandwidthBitsPerSec: 100e6, MTU: 1500}
}

// Endpoint receives frames delivered over a link.
type Endpoint interface {
	Deliver(frame []byte)
}

// EndpointFunc adapts a function to the Endpoint interface.
type EndpointFunc func(frame []byte)

// Deliver implements Endpoint.
func (f EndpointFunc) Deliver(frame []byte) { f(frame) }

// Link is a bidirectional link between two endpoints.
type Link struct {
	mu     sync.Mutex
	params LinkParams
	clock  *vclock.Clock
	a, b   Endpoint

	bytesAB, bytesBA   uint64
	framesAB, framesBA uint64
}

// NewLink creates a link charging transfer time to clock.
func NewLink(params LinkParams, clock *vclock.Clock) *Link {
	if params.BandwidthBitsPerSec <= 0 {
		params.BandwidthBitsPerSec = 100e6
	}
	if params.MTU <= 0 {
		params.MTU = 1500
	}
	return &Link{params: params, clock: clock}
}

// Attach connects the two endpoints.  Pass nil for an endpoint that only
// transmits.
func (l *Link) Attach(a, b Endpoint) {
	l.mu.Lock()
	defer l.mu.Unlock()
	l.a, l.b = a, b
}

// MTU returns the link MTU.
func (l *Link) MTU() int { return l.params.MTU }

func (l *Link) transferTime(n int) time.Duration {
	// No propagation delay is charged: frames pipeline on the wire, so
	// sustained transfers are bandwidth-limited (which is what the Figure 13
	// wget row measures).
	sec := float64(n*8) / l.params.BandwidthBitsPerSec
	return time.Duration(sec * float64(time.Second))
}

// SendAtoB transmits a frame from endpoint A to endpoint B, charging the
// simulated clock and delivering synchronously.
func (l *Link) SendAtoB(frame []byte) {
	l.mu.Lock()
	dst := l.b
	l.bytesAB += uint64(len(frame))
	l.framesAB++
	l.mu.Unlock()
	if l.clock != nil {
		l.clock.Advance(l.transferTime(len(frame)))
	}
	if dst != nil {
		dst.Deliver(append([]byte(nil), frame...))
	}
}

// SendBtoA transmits a frame from endpoint B to endpoint A.
func (l *Link) SendBtoA(frame []byte) {
	l.mu.Lock()
	dst := l.a
	l.bytesBA += uint64(len(frame))
	l.framesBA++
	l.mu.Unlock()
	if l.clock != nil {
		l.clock.Advance(l.transferTime(len(frame)))
	}
	if dst != nil {
		dst.Deliver(append([]byte(nil), frame...))
	}
}

// Stats returns cumulative byte and frame counts in each direction.
func (l *Link) Stats() (bytesAB, bytesBA, framesAB, framesBA uint64) {
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.bytesAB, l.bytesBA, l.framesAB, l.framesBA
}
