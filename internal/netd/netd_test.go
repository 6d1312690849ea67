package netd

import (
	"runtime"
	"testing"

	"histar/internal/kernel"
	"histar/internal/label"
	"histar/internal/unixlib"
)

func bootNet(t *testing.T) (*unixlib.System, *Daemon) {
	t.Helper()
	sys, err := unixlib.Boot(unixlib.BootOptions{KernelConfig: kernel.Config{Seed: 3}})
	if err != nil {
		t.Fatal(err)
	}
	d, err := New(sys, Options{})
	if err != nil {
		t.Fatal(err)
	}
	return sys, d
}

func TestDialSendRecv(t *testing.T) {
	sys, d := bootNet(t)
	d.RegisterRemote("origin:80", func(req []byte) []byte {
		return append([]byte("you sent: "), req...)
	})
	client, err := sys.NewInitProcess("alice")
	if err != nil {
		t.Fatal(err)
	}
	sock, err := Dial(d, client, "origin:80")
	if err != nil {
		t.Fatal(err)
	}
	if err := sock.Send([]byte("GET /")); err != nil {
		t.Fatal(err)
	}
	var got []byte
	for len(got) < len("you sent: GET /") {
		chunk, err := sock.Recv(4096)
		if err != nil {
			t.Fatal(err)
		}
		if len(chunk) == 0 {
			break
		}
		got = append(got, chunk...)
	}
	if string(got) != "you sent: GET /" {
		t.Errorf("received %q", got)
	}
	if err := sock.Close(); err != nil {
		t.Fatal(err)
	}

	// Receiving network data tainted the client with the stack's i category.
	lbl, _ := client.TC.SelfLabel()
	if lbl.Get(d.Taint) != label.L2 {
		t.Errorf("client taint in i = %v, want 2", lbl.Get(d.Taint))
	}
	// But the client did not keep ownership of nr or nw.
	if lbl.Owns(d.Nr) || lbl.Owns(d.Nw) {
		t.Error("client must not retain device ownership after the call")
	}
}

func TestDialUnknownHostFails(t *testing.T) {
	sys, d := bootNet(t)
	client, _ := sys.NewInitProcess("alice")
	if _, err := Dial(d, client, "nowhere:99"); err == nil {
		t.Error("dialing an unregistered host should fail")
	}
}

func TestTaintedProcessCannotTransmit(t *testing.T) {
	// The ClamAV property: a process tainted in a secrecy category that the
	// network device does not carry cannot send anything, because the
	// DeviceTransmit write check fails.
	sys, d := bootNet(t)
	d.RegisterRemote("attacker:31337", func(req []byte) []byte { return []byte("got it") })
	victim, _ := sys.NewInitProcess("alice")

	// Taint the process in a fresh category v (as wrap does to the scanner).
	v, err := victim.TC.CategoryCreate()
	if err != nil {
		t.Fatal(err)
	}
	lbl, _ := victim.TC.SelfLabel()
	if err := victim.TC.SelfSetLabel(lbl.With(v, label.L3).Without(v).With(v, label.L3)); err != nil {
		t.Fatal(err)
	}
	// Drop ownership first, then taint: simulate a thread that is tainted v3
	// without owning v.  (Creating the category granted ownership, so build
	// a second process that receives only the taint.)
	scanner, _ := sys.NewInitProcess("alice")
	slbl, _ := scanner.TC.SelfLabel()
	if err := scanner.TC.SelfSetLabel(slbl.With(v, label.L2)); err != nil {
		t.Fatal(err)
	}
	if _, err := Dial(d, scanner, "attacker:31337"); err == nil {
		t.Error("a v-tainted process must not be able to open network connections")
	}
}

func TestRecvRejectsNegativeLength(t *testing.T) {
	// The receive length is caller-supplied gate arguments: a hostile one
	// gets the error reply, and the daemon goes on serving the connection.
	sys, d := bootNet(t)
	d.RegisterRemote("echo:7", func(req []byte) []byte { return req })
	client, _ := sys.NewInitProcess("alice")
	sock, err := Dial(d, client, "echo:7")
	if err != nil {
		t.Fatal(err)
	}
	if err := sock.Send([]byte("ping")); err != nil {
		t.Fatal(err)
	}
	if _, err := sock.Recv(-1); err == nil {
		t.Error("Recv(-1) succeeded, want the error reply")
	}
	var got []byte
	for len(got) < len("ping") {
		chunk, err := sock.Recv(4096)
		if err != nil {
			t.Fatal(err)
		}
		if len(chunk) == 0 {
			break
		}
		got = append(got, chunk...)
	}
	if string(got) != "ping" {
		t.Errorf("received %q after the refused Recv, want %q", got, "ping")
	}
}

func TestSeparateStacksIsolateTaints(t *testing.T) {
	// Two stacks (Internet and VPN) use distinct taint categories.  A
	// process that has read data from one network becomes tainted in that
	// network's category and can no longer transmit on the other device —
	// the Section 6.3 VPN isolation property.
	sys, inet := bootNet(t)
	vpn, err := New(sys, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if inet.Taint == vpn.Taint {
		t.Fatal("stacks must use distinct taint categories")
	}
	inet.RegisterRemote("a:1", func([]byte) []byte { return []byte("A") })
	vpn.RegisterRemote("b:1", func([]byte) []byte { return []byte("B") })

	// An Internet-side browser: reads from the Internet stack, so it is
	// tainted i2 and must not be able to reach the VPN network.
	browser, _ := sys.NewInitProcess("alice")
	s1, err := Dial(inet, browser, "a:1")
	if err != nil {
		t.Fatal(err)
	}
	if err := s1.Send(nil); err != nil {
		t.Fatal(err)
	}
	if _, err := s1.Recv(16); err != nil {
		t.Fatal(err)
	}
	lbl, _ := browser.TC.SelfLabel()
	if lbl.Get(inet.Taint) != label.L2 {
		t.Fatalf("browser should be tainted i2, got %v", lbl)
	}
	if _, err := Dial(vpn, browser, "b:1"); err == nil {
		t.Error("an i-tainted process must not open connections on the VPN stack")
	}

	// A separate VPN-side process can use the VPN stack normally.
	vpnProc, _ := sys.NewInitProcess("alice")
	s2, err := Dial(vpn, vpnProc, "b:1")
	if err != nil {
		t.Fatal(err)
	}
	if err := s2.Send(nil); err != nil {
		t.Fatal(err)
	}
	if data, err := s2.Recv(16); err != nil || string(data) != "B" {
		t.Errorf("VPN-side receive = %q, %v", data, err)
	}
}

// TestDaemonsLeaveNoGoroutine boots five systems with a daemon each, drives a
// request through one, and drops them all: the daemons start no goroutine,
// so none is left behind blocked on a device nobody will touch again.
func TestDaemonsLeaveNoGoroutine(t *testing.T) {
	before := runtime.NumGoroutine()
	for i := 0; i < 5; i++ {
		sys, d := bootNet(t)
		if i == 0 {
			d.RegisterRemote("origin:80", func(req []byte) []byte { return req })
			client, err := sys.NewInitProcess("alice")
			if err != nil {
				t.Fatal(err)
			}
			sock, err := Dial(d, client, "origin:80")
			if err != nil {
				t.Fatal(err)
			}
			if err := sock.Send([]byte("ping")); err != nil {
				t.Fatal(err)
			}
			if got, err := sock.Recv(4096); err != nil || string(got) != "ping" {
				t.Fatalf("Recv = %q, %v", got, err)
			}
		}
	}
	if after := runtime.NumGoroutine(); after > before {
		t.Fatalf("%d goroutines before five daemons, %d after", before, after)
	}
}
