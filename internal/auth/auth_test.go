package auth

import (
	"encoding/hex"
	"errors"
	"strings"
	"testing"

	"histar/internal/kernel"
	"histar/internal/label"
	"histar/internal/unixlib"
)

func bootAuth(t *testing.T) (*unixlib.System, *Service) {
	t.Helper()
	sys, err := unixlib.Boot(unixlib.BootOptions{KernelConfig: kernel.Config{Seed: 11}})
	if err != nil {
		t.Fatal(err)
	}
	return sys, New(sys)
}

func TestSuccessfulLoginGrantsUserPrivileges(t *testing.T) {
	sys, svc := bootAuth(t)
	u, err := svc.Register("bob", "hunter2")
	if err != nil {
		t.Fatal(err)
	}
	// Bob's files exist before login; the login client starts with nothing.
	setup, _ := sys.NewInitProcess("bob")
	if err := setup.WriteFile("/home/bob/diary.txt", []byte("dear diary"), label.Label{}); err != nil {
		t.Fatal(err)
	}

	client, _ := sys.NewInitProcess("") // an sshd instance: no user privileges
	if _, err := client.ReadFile("/home/bob/diary.txt"); err == nil {
		t.Fatal("unauthenticated client must not read bob's files")
	}
	if err := svc.Login(client, "bob", "hunter2"); err != nil {
		t.Fatalf("login: %v", err)
	}
	lbl, _ := client.TC.SelfLabel()
	if !lbl.Owns(u.Ur) || !lbl.Owns(u.Uw) {
		t.Error("login should grant ownership of ur and uw")
	}
	if data, err := client.ReadFile("/home/bob/diary.txt"); err != nil || string(data) != "dear diary" {
		t.Errorf("post-login read: %q, %v", data, err)
	}
	// The log recorded the success.
	joined := strings.Join(svc.Log.Entries(), "\n")
	if !strings.Contains(joined, "authentication success for bob") {
		t.Errorf("log missing success entry: %q", joined)
	}
}

func TestWrongPasswordGrantsNothing(t *testing.T) {
	sys, svc := bootAuth(t)
	u, err := svc.Register("carol", "correct horse")
	if err != nil {
		t.Fatal(err)
	}
	client, _ := sys.NewInitProcess("")
	err = svc.Login(client, "carol", "wrong guess")
	if !errors.Is(err, ErrBadPassword) {
		t.Fatalf("expected ErrBadPassword, got %v", err)
	}
	lbl, _ := client.TC.SelfLabel()
	if lbl.Owns(u.Ur) || lbl.Owns(u.Uw) {
		t.Error("failed login must not grant user categories")
	}
	if client.User != nil {
		t.Error("failed login must not associate the user")
	}
	joined := strings.Join(svc.Log.Entries(), "\n")
	if !strings.Contains(joined, "authentication failure for carol") {
		t.Errorf("log missing failure entry: %q", joined)
	}
}

func TestRetryLimit(t *testing.T) {
	sys, svc := bootAuth(t)
	if _, err := svc.Register("dave", "pw"); err != nil {
		t.Fatal(err)
	}
	client, _ := sys.NewInitProcess("")
	// Burn through the retry budget with wrong guesses against one session.
	// Each Login call creates a fresh session, so drive the gates directly
	// through repeated failed logins and confirm the per-session limit by
	// reusing a single session's check gate.
	for i := 0; i < MaxRetries+2; i++ {
		err := svc.Login(client, "dave", "nope")
		if !errors.Is(err, ErrBadPassword) && !errors.Is(err, ErrTooManyRetries) {
			t.Fatalf("attempt %d: unexpected error %v", i, err)
		}
	}
	// The correct password still works afterwards (fresh session).
	if err := svc.Login(client, "dave", "pw"); err != nil {
		t.Errorf("correct password after failures: %v", err)
	}
}

func TestUnknownUser(t *testing.T) {
	sys, svc := bootAuth(t)
	client, _ := sys.NewInitProcess("")
	if err := svc.Login(client, "nobody", "x"); !errors.Is(err, ErrNoSuchUser) {
		t.Errorf("unknown user: %v", err)
	}
}

func TestCompromisedServiceLearnsOnlyHash(t *testing.T) {
	_, svc := bootAuth(t)
	if _, err := svc.Register("eve-target", "s3cret passphrase"); err != nil {
		t.Fatal(err)
	}
	h, err := svc.PasswordHashHex("eve-target")
	if err != nil {
		t.Fatal(err)
	}
	if strings.Contains(h, "s3cret") {
		t.Error("stored verifier must not contain the password")
	}
	if len(h) != 64 {
		t.Errorf("verifier should be a 32-byte hash, got %d hex chars", len(h))
	}
}

func TestCrossUserIsolationAfterLogin(t *testing.T) {
	sys, svc := bootAuth(t)
	svc.Register("alice", "a-pass")
	svc.Register("bob", "b-pass")
	aliceSetup, _ := sys.NewInitProcess("alice")
	aliceSetup.WriteFile("/home/alice/private", []byte("alice only"), label.Label{})

	bobClient, _ := sys.NewInitProcess("")
	if err := svc.Login(bobClient, "bob", "b-pass"); err != nil {
		t.Fatal(err)
	}
	if _, err := bobClient.ReadFile("/home/alice/private"); err == nil {
		t.Error("bob's session must not read alice's files")
	}
}

func TestVerifyFastPath(t *testing.T) {
	_, svc := bootAuth(t)
	if _, err := svc.Register("dave", "open sesame"); err != nil {
		t.Fatal(err)
	}
	if err := svc.Verify("dave", "open sesame"); err != nil {
		t.Errorf("correct password: %v", err)
	}
	if err := svc.Verify("dave", "open says me"); !errors.Is(err, ErrBadPassword) {
		t.Errorf("wrong password: err=%v, want ErrBadPassword", err)
	}
	if err := svc.Verify("nobody", "x"); !errors.Is(err, ErrNoSuchUser) {
		t.Errorf("unknown user: err=%v, want ErrNoSuchUser", err)
	}
}

func TestVerifierMatchesHashPassword(t *testing.T) {
	// The stored verifier is hashPassword's, and Verify accepts exactly the
	// registered password, for passwords that are empty or hold a NUL.
	_, svc := bootAuth(t)
	cases := []struct{ user, pass string }{
		{"alice", "wonderland"},
		{"erin", ""},
		{"u", "p"},
		{"frank", "pass\x00word"},
	}
	for _, c := range cases {
		if _, err := svc.Register(c.user, c.pass); err != nil {
			t.Fatal(err)
		}
		want := hashPassword(c.user, c.pass)
		if got, err := svc.PasswordHashHex(c.user); err != nil || got != hex.EncodeToString(want[:]) {
			t.Errorf("%s: stored verifier %s, %v; want hashPassword's", c.user, got, err)
		}
		if err := svc.Verify(c.user, c.pass); err != nil {
			t.Errorf("%s: Verify of the registered password: %v", c.user, err)
		}
		if err := svc.Verify(c.user, c.pass+"\x00"); !errors.Is(err, ErrBadPassword) {
			t.Errorf("%s: Verify of the password plus a NUL: %v, want ErrBadPassword", c.user, err)
		}
	}
}

func TestSessionCodecRoundTrip(t *testing.T) {
	sess := &sessionState{
		x:         label.Category(0xdeadbeefcafe),
		checkGate: kernel.CEnt{Container: 1, Object: 2},
		grantGate: kernel.CEnt{Container: 3, Object: 4},
		retrySeg:  kernel.CEnt{Container: 5, Object: 6},
	}
	got, err := decodeSession(encodeSession(sess))
	if err != nil {
		t.Fatal(err)
	}
	if *got != *sess {
		t.Errorf("round trip: got %+v, want %+v", got, sess)
	}
	if _, err := decodeSession([]byte("ERR something broke")); err == nil {
		t.Error("text error reply must not decode as a session")
	}
}

// benchAuth boots a system with one registered user for the login
// benchmarks; testing.TB so benchmarks share it.
func benchAuth(tb testing.TB) (*unixlib.System, *Service) {
	tb.Helper()
	sys, err := unixlib.Boot(unixlib.BootOptions{KernelConfig: kernel.Config{Seed: 11}})
	if err != nil {
		tb.Fatal(err)
	}
	svc := New(sys)
	if _, err := svc.Register("bench", "passw0rd"); err != nil {
		tb.Fatal(err)
	}
	return sys, svc
}

// BenchmarkLoginCold measures the full cold login a session miss pays:
// a fresh unprivileged process plus the three-gate authentication protocol.
func BenchmarkLoginCold(b *testing.B) {
	sys, svc := benchAuth(b)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		client, err := sys.NewInitProcess("")
		if err != nil {
			b.Fatal(err)
		}
		if err := svc.Login(client, "bench", "passw0rd"); err != nil {
			b.Fatal(err)
		}
		client.ExitQuietly()
	}
}

// BenchmarkLoginSessionHit measures the credential re-check a session hit
// pays: one midstate-resumed hash and a constant-time compare.
func BenchmarkLoginSessionHit(b *testing.B) {
	_, svc := benchAuth(b)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := svc.Verify("bench", "passw0rd"); err != nil {
			b.Fatal(err)
		}
	}
}

// TestLoginFailureLeavesLabelUnchanged: "on failure it gains nothing" is
// literally true of the client's label, clearance and process container, for
// every way a login can fail; and a success adds ur⋆/uw⋆ (clearance ur3/uw3)
// and nothing else — not the password category, not the session category x
// (whose only use is to get past the grant gate), not the session container.
func TestLoginFailureLeavesLabelUnchanged(t *testing.T) {
	sys, svc := bootAuth(t)
	u, err := svc.Register("frank", "right")
	if err != nil {
		t.Fatal(err)
	}
	client, err := sys.NewInitProcess("")
	if err != nil {
		t.Fatal(err)
	}
	state := func() (lbl, clr label.Label, entries int) {
		t.Helper()
		lbl, err := client.TC.SelfLabel()
		if err != nil {
			t.Fatal(err)
		}
		clr, err = client.TC.SelfClearance()
		if err != nil {
			t.Fatal(err)
		}
		ids, err := client.TC.ContainerList(kernel.CEnt{Container: sys.Kern.RootContainer(), Object: client.ProcCt})
		if err != nil {
			t.Fatal(err)
		}
		return lbl, clr, len(ids)
	}
	lbl0, clr0, entries0 := state()
	objs0 := sys.Kern.ObjectCount()
	for i := 0; i < 2*MaxRetries; i++ {
		if err := svc.Login(client, "frank", "wrong"); !errors.Is(err, ErrBadPassword) {
			t.Fatalf("attempt %d: %v, want ErrBadPassword", i, err)
		}
		if lbl, clr, entries := state(); !lbl.Equal(lbl0) || !clr.Equal(clr0) || entries != entries0 {
			t.Fatalf("attempt %d: label %v clearance %v entries %d, want %v, %v and %d", i, lbl, clr, entries, lbl0, clr0, entries0)
		}
	}
	if err := svc.Login(client, "nobody", "x"); !errors.Is(err, ErrNoSuchUser) {
		t.Fatalf("unknown user: %v", err)
	}
	if got := sys.Kern.ObjectCount(); got != objs0 {
		t.Errorf("failed logins changed the object count from %d to %d", objs0, got)
	}
	if err := svc.Login(client, "frank", "right"); err != nil {
		t.Fatal(err)
	}
	lbl, clr, entries := state()
	wantLbl := lbl0.With(u.Ur, label.Star).With(u.Uw, label.Star)
	wantClr := clr0.With(u.Ur, label.L3).With(u.Uw, label.L3)
	if !lbl.Equal(wantLbl) || !clr.Equal(wantClr) || entries != entries0 {
		t.Errorf("after success: label %v clearance %v entries %d, want %v, %v and %d", lbl, clr, entries, wantLbl, wantClr, entries0)
	}
	if got := sys.Kern.ObjectCount(); got != objs0 {
		t.Errorf("a successful login changed the object count from %d to %d", objs0, got)
	}
	// The daemon's process container holds its setup gate and nothing per
	// login, and the setup gate names no process category.
	svc.mu.Lock()
	daemon := svc.users["frank"]
	svc.mu.Unlock()
	st, err := daemon.proc.TC.ObjectStat(daemon.setup)
	if err != nil {
		t.Fatal(err)
	}
	if want := label.New(label.L1, label.P(u.Ur, label.Star), label.P(u.Uw, label.Star)); !st.Label.Equal(want) {
		t.Errorf("setup gate label %v, want %v", st.Label, want)
	}
}
