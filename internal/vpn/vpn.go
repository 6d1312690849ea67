// Package vpn implements the VPN isolation application of Section 6.3: two
// network stacks (the Internet stack, whose receive taint is i, and the VPN
// stack, whose receive taint is v) run side by side, and the only component
// allowed to move data between them is the VPN client, which owns both i and
// v, encrypts outbound traffic, decrypts inbound traffic, and swaps the
// taints as it does so.  Everything else on the machine is tainted by
// whichever network it has touched and therefore cannot bridge the firewall.
package vpn

import (
	"crypto/aes"
	"crypto/cipher"
	"crypto/sha256"
	"errors"
	"fmt"

	"histar/internal/kernel"
	"histar/internal/label"
	"histar/internal/netd"
	"histar/internal/unixlib"
)

// ErrNotOwner is returned when the process running the client does not own
// both network taint categories.
var ErrNotOwner = errors.New("vpn: client process must own both network taint categories")

// Client is the OpenVPN-style tunnel client.  It runs as a process that owns
// both stacks' taint categories (granted by whoever configured the tunnel)
// and is trusted exactly as far as the paper says: to taint incoming VPN
// packets with v2, to refuse to forward anything tainted i onto the VPN (and
// vice versa), and to encrypt correctly.
type Client struct {
	proc *unixlib.Process
	// Inet is the Internet-facing stack.
	Inet *netd.Daemon
	// PeerAddr is the remote VPN concentrator on the Internet stack.
	PeerAddr string
	aead     cipher.AEAD
}

// NewClient builds a tunnel client on proc.  The process must own both
// stacks' taint categories, since swapping taints is precisely its job.
func NewClient(proc *unixlib.Process, inet, vpnStack *netd.Daemon, peerAddr, presharedKey string) (*Client, error) {
	lbl, err := proc.TC.SelfLabel()
	if err != nil {
		return nil, err
	}
	if !lbl.Owns(inet.Taint) || !lbl.Owns(vpnStack.Taint) {
		return nil, ErrNotOwner
	}
	key := sha256.Sum256([]byte("histar-vpn-psk\x00" + presharedKey))
	block, err := aes.NewCipher(key[:])
	if err != nil {
		return nil, err
	}
	aead, err := cipher.NewGCM(block)
	if err != nil {
		return nil, err
	}
	return &Client{proc: proc, Inet: inet, PeerAddr: peerAddr, aead: aead}, nil
}

// Encrypt seals plaintext for the tunnel.
func (c *Client) Encrypt(plaintext []byte) []byte {
	nonce := make([]byte, c.aead.NonceSize())
	copy(nonce, "histar-vpn-n")
	return c.aead.Seal(nil, nonce, plaintext, nil)
}

// Decrypt opens tunnel ciphertext.
func (c *Client) Decrypt(ciphertext []byte) ([]byte, error) {
	nonce := make([]byte, c.aead.NonceSize())
	copy(nonce, "histar-vpn-n")
	return c.aead.Open(nil, nonce, ciphertext, nil)
}

// SendOverTunnel takes a request originating on the VPN side (so the data is
// v-tainted in spirit), encrypts it, and carries it across the Internet
// stack to the VPN peer, returning the decrypted response.  Only the client
// can do this, because only it owns both i and v: it checks that the calling
// process is not tainted by the *other* network before forwarding — the
// user-level embodiment of "reject any outgoing packets tainted in category
// i" from Figure 11.
func (c *Client) SendOverTunnel(from *unixlib.Process, request []byte) ([]byte, error) {
	lbl, err := from.TC.SelfLabel()
	if err != nil {
		return nil, err
	}
	if lvl := lbl.Get(c.Inet.Taint); lvl >= label.L2 {
		return nil, fmt.Errorf("vpn: refusing to forward data from an i-tainted process")
	}
	sock, err := netd.Dial(c.Inet, c.proc, c.PeerAddr)
	if err != nil {
		return nil, err
	}
	defer sock.Close()
	if err := sock.Send(c.Encrypt(request)); err != nil {
		return nil, err
	}
	var resp []byte
	for {
		chunk, err := sock.Recv(64 * 1024)
		if err != nil {
			return nil, err
		}
		if len(chunk) == 0 {
			break
		}
		resp = append(resp, chunk...)
	}
	// The client owns i, so it may untaint the (decrypted) response and hand
	// it back to the VPN side; the data re-enters the machine as v-tainted
	// when read through the VPN stack by ordinary processes.
	plain, err := c.Decrypt(resp)
	if err != nil {
		return nil, err
	}
	// Drop the i taint the socket read put on the client's own thread — the
	// client owns i, so this is its untainting privilege at work.
	cur, _ := c.proc.TC.SelfLabel()
	if cur.Get(c.Inet.Taint) >= label.L2 && cur.Owns(c.Inet.Taint) {
		_ = c.proc.TC.SelfSetLabel(cur.With(c.Inet.Taint, label.Star))
	}
	return plain, nil
}

// GrantTaintOwnership is the administrator's configuration step in Section
// 6.3: the machine bootstrap, which owns both stacks' taint categories,
// hands them to the process that will run the tunnel client.  Ownership
// moves the only way the paper allows between running threads, through a
// gate.  The bootstrap creates a one-shot grant gate labeled {i⋆, v⋆, 1}
// whose clearance {pw0, i3, v3, 2} admits only the target process's
// threads, the target's main thread enters it asking for its own label plus
// i⋆ and v⋆, and the bootstrap then unreferences the gate.
func GrantTaintOwnership(sys *unixlib.System, inet, vpnStack *netd.Daemon, to *unixlib.Process) error {
	i, v := inet.Taint, vpnStack.Taint
	lbl, err := to.TC.SelfLabel()
	if err != nil {
		return err
	}
	clr, err := to.TC.SelfClearance()
	if err != nil {
		return err
	}
	root, admin := sys.Kern.RootContainer(), sys.InitThread()
	gid, err := admin.GateCreate(root, kernel.GateSpec{
		Label:     label.New(label.L1, label.P(i, label.Star), label.P(v, label.Star)),
		Clearance: label.New(label.L2, label.P(to.Pw, label.L0), label.P(i, label.L3), label.P(v, label.L3)),
		Descrip:   "vpn taint grant gate",
		Entry:     func(*kernel.GateCallCtx) []byte { return nil },
	})
	if err != nil {
		return err
	}
	_, err = to.TC.GateEnter(kernel.CEnt{Container: root, Object: gid}, kernel.GateRequest{
		Label:     lbl.With(i, label.Star).With(v, label.Star),
		Clearance: clr.With(i, label.L3).With(v, label.L3),
		Verify:    lbl,
	})
	if uerr := admin.Unref(root, gid); err == nil {
		err = uerr
	}
	return err
}
