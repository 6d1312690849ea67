package vpn

import (
	"bytes"
	"testing"

	"histar/internal/kernel"
	"histar/internal/netd"
	"histar/internal/netsim"
	"histar/internal/unixlib"
)

// bootVPN boots the two stacks and a tunnel client; the link it returns is
// the Internet stack's, whose byte counts show what crossed the wire.
func bootVPN(t *testing.T) (*unixlib.System, *netd.Daemon, *netd.Daemon, *Client, *netsim.Link) {
	t.Helper()
	sys, err := unixlib.Boot(unixlib.BootOptions{KernelConfig: kernel.Config{Seed: 13}})
	if err != nil {
		t.Fatal(err)
	}
	link := netsim.NewLink(netsim.PaperEthernet(), nil)
	inet, err := netd.New(sys, netd.Options{Link: link})
	if err != nil {
		t.Fatal(err)
	}
	vpnStack, err := netd.New(sys, netd.Options{})
	if err != nil {
		t.Fatal(err)
	}
	// The VPN concentrator on the Internet side decrypts with the same PSK
	// and answers.
	clientProc, err := sys.NewInitProcess("")
	if err != nil {
		t.Fatal(err)
	}
	if err := GrantTaintOwnership(sys, inet, vpnStack, clientProc); err != nil {
		t.Fatal(err)
	}
	client, err := NewClient(clientProc, inet, vpnStack, "vpn-peer:1194", "shared-secret")
	if err != nil {
		t.Fatal(err)
	}
	inet.RegisterRemote("vpn-peer:1194", func(req []byte) []byte {
		plain, err := client.Decrypt(req)
		if err != nil {
			return client.Encrypt([]byte("DECRYPT-ERROR"))
		}
		return client.Encrypt(append([]byte("peer saw: "), plain...))
	})
	return sys, inet, vpnStack, client, link
}

func TestTunnelRoundTripIsEncrypted(t *testing.T) {
	sys, _, _, client, link := bootVPN(t)
	corpProc, _ := sys.NewInitProcess("employee")
	resp, err := client.SendOverTunnel(corpProc, []byte("GET /intranet"))
	if err != nil {
		t.Fatal(err)
	}
	if string(resp) != "peer saw: GET /intranet" {
		t.Errorf("tunnel response = %q", resp)
	}
	// The bytes on the Internet link were ciphertext, not the plaintext.
	if sent, _, _, _ := link.Stats(); sent == 0 {
		t.Fatal("nothing crossed the Internet link")
	}
	if bytes.Contains(client.Encrypt([]byte("GET /intranet")), []byte("GET /intranet")) {
		t.Error("encryption is a no-op")
	}
}

func TestClientRequiresOwnershipOfBothTaints(t *testing.T) {
	sys, inet, vpnStack, _, _ := bootVPN(t)
	plain, _ := sys.NewInitProcess("")
	if _, err := NewClient(plain, inet, vpnStack, "vpn-peer:1194", "k"); err != ErrNotOwner {
		t.Errorf("expected ErrNotOwner, got %v", err)
	}
}

func TestInternetTaintedProcessCannotUseTunnel(t *testing.T) {
	sys, inet, _, client, _ := bootVPN(t)
	inet.RegisterRemote("www:80", func([]byte) []byte { return []byte("public page") })
	browser, _ := sys.NewInitProcess("")
	sock, err := netd.Dial(inet, browser, "www:80")
	if err != nil {
		t.Fatal(err)
	}
	sock.Send(nil)
	sock.Recv(64) // taints the browser i2
	if _, err := client.SendOverTunnel(browser, []byte("exfiltrate")); err == nil {
		t.Error("the tunnel must refuse data from an i-tainted process")
	}
}

// The grant moves ownership through a one-shot gate: the client ends owning
// both taints, the gate is gone again, and no other process gains anything.
func TestTaintGrantLeavesNoGate(t *testing.T) {
	sys, err := unixlib.Boot(unixlib.BootOptions{KernelConfig: kernel.Config{Seed: 13}})
	if err != nil {
		t.Fatal(err)
	}
	inet, err := netd.New(sys, netd.Options{})
	if err != nil {
		t.Fatal(err)
	}
	vpnStack, err := netd.New(sys, netd.Options{})
	if err != nil {
		t.Fatal(err)
	}
	clientProc, err := sys.NewInitProcess("")
	if err != nil {
		t.Fatal(err)
	}
	bystander, err := sys.NewInitProcess("")
	if err != nil {
		t.Fatal(err)
	}
	before := sys.Kern.ObjectCount()
	bystanderBefore, _ := bystander.TC.SelfLabel()

	if err := GrantTaintOwnership(sys, inet, vpnStack, clientProc); err != nil {
		t.Fatal(err)
	}
	lbl, _ := clientProc.TC.SelfLabel()
	if !lbl.Owns(inet.Taint) || !lbl.Owns(vpnStack.Taint) {
		t.Errorf("client label after the grant = %v; want it to own both taints", lbl)
	}
	if after := sys.Kern.ObjectCount(); after != before {
		t.Errorf("object count %d -> %d; the grant gate should be gone", before, after)
	}
	if got, _ := bystander.TC.SelfLabel(); !got.Equal(bystanderBefore) {
		t.Errorf("bystander label %v -> %v", bystanderBefore, got)
	}
}
