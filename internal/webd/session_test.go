package webd

import (
	"errors"
	"strings"
	"sync"
	"testing"
	"time"

	"histar/internal/auth"
	"histar/internal/kernel"
	"histar/internal/unixlib"
)

func bootWebCfg(t *testing.T, cfg Config) (*Server, *unixlib.System) {
	t.Helper()
	sys, err := unixlib.Boot(unixlib.BootOptions{KernelConfig: kernel.Config{Seed: 17}})
	if err != nil {
		t.Fatal(err)
	}
	authSvc := auth.New(sys)
	for _, u := range []struct{ name, pw string }{{"alice", "wonderland"}, {"bob", "builder"}} {
		if _, err := authSvc.Register(u.name, u.pw); err != nil {
			t.Fatal(err)
		}
	}
	srv := NewWithConfig(sys, authSvc, ProfileApp, cfg)
	t.Cleanup(srv.Close)
	return srv, sys
}

func TestSessionCacheHitsSkipLogin(t *testing.T) {
	srv, _ := bootWebCfg(t, Config{})
	for i := 0; i < 5; i++ {
		if _, err := srv.Serve(Request{User: "alice", Password: "wonderland", Path: "/profile/set/v"}); err != nil {
			t.Fatal(err)
		}
	}
	st := srv.SessionStats()
	if st.ColdLogins != 1 {
		t.Errorf("cold logins = %d, want 1", st.ColdLogins)
	}
	if st.Hits != 4 || st.Misses != 1 {
		t.Errorf("hits/misses = %d/%d, want 4/1", st.Hits, st.Misses)
	}
}

func TestSessionCacheRejectsBadPasswordOnHit(t *testing.T) {
	srv, _ := bootWebCfg(t, Config{})
	if _, err := srv.Serve(Request{User: "alice", Password: "wonderland", Path: "/profile/set/v"}); err != nil {
		t.Fatal(err)
	}
	// The cached worker must not let a wrong password ride an existing
	// session.
	if _, err := srv.Serve(Request{User: "alice", Password: "wrong", Path: "/profile"}); !errors.Is(err, ErrUnauthorized) {
		t.Errorf("hit with bad password: err = %v, want ErrUnauthorized", err)
	}
	if st := srv.SessionStats(); st.BadPasswords != 1 {
		t.Errorf("bad passwords = %d, want 1", st.BadPasswords)
	}
}

func TestLogoutForcesColdLogin(t *testing.T) {
	srv, _ := bootWebCfg(t, Config{})
	if _, err := srv.Serve(Request{User: "alice", Password: "wonderland", Path: "/profile/set/v"}); err != nil {
		t.Fatal(err)
	}
	if !srv.Logout("alice") {
		t.Fatal("logout found no session")
	}
	if srv.Logout("alice") {
		t.Error("second logout found a session")
	}
	if _, err := srv.Serve(Request{User: "alice", Password: "wonderland", Path: "/profile"}); err != nil {
		t.Fatal(err)
	}
	if st := srv.SessionStats(); st.ColdLogins != 2 {
		t.Errorf("cold logins = %d, want 2 (logout must invalidate)", st.ColdLogins)
	}
}

func TestSessionCacheCapacityEviction(t *testing.T) {
	srv, _ := bootWebCfg(t, Config{MaxSessions: 1})
	if _, err := srv.Serve(Request{User: "alice", Password: "wonderland", Path: "/profile/set/a"}); err != nil {
		t.Fatal(err)
	}
	if _, err := srv.Serve(Request{User: "bob", Password: "builder", Path: "/profile/set/b"}); err != nil {
		t.Fatal(err)
	}
	st := srv.SessionStats()
	if st.Live != 1 {
		t.Errorf("live sessions = %d, want 1", st.Live)
	}
	if st.Evictions != 1 {
		t.Errorf("evictions = %d, want 1", st.Evictions)
	}
	// Alice was evicted; serving her again is a cold login, and her data
	// survived (it lives in the filesystem, not the session).
	resp, err := srv.Serve(Request{User: "alice", Password: "wonderland", Path: "/profile"})
	if err != nil || !strings.Contains(resp, "a") {
		t.Errorf("alice after eviction = %q, %v", resp, err)
	}
	if st := srv.SessionStats(); st.ColdLogins != 3 {
		t.Errorf("cold logins = %d, want 3", st.ColdLogins)
	}
}

func TestSessionIdleEviction(t *testing.T) {
	srv, _ := bootWebCfg(t, Config{IdleTimeout: time.Millisecond})
	if _, err := srv.Serve(Request{User: "alice", Password: "wonderland", Path: "/profile/set/v"}); err != nil {
		t.Fatal(err)
	}
	time.Sleep(5 * time.Millisecond)
	// The sweep is lazy; any acquisition triggers it.
	if _, err := srv.Serve(Request{User: "bob", Password: "builder", Path: "/profile/set/v"}); err != nil {
		t.Fatal(err)
	}
	if st := srv.SessionStats(); st.IdleEvictions == 0 {
		t.Error("idle session was not evicted")
	}
}

// TestReplySegmentUnreadableOutsideGate checks the label story the reply
// path rests on: the demultiplexer process, before entering a user's serve
// gate, cannot read that user's reply segment.
func TestReplySegmentUnreadableOutsideGate(t *testing.T) {
	srv, _ := bootWebCfg(t, Config{})
	if _, err := srv.Serve(Request{User: "alice", Password: "wonderland", Path: "/profile/set/ssn=111"}); err != nil {
		t.Fatal(err)
	}
	sess, err := srv.sessions.acquire("alice", "wonderland")
	if err != nil {
		t.Fatal(err)
	}
	defer srv.sessions.release(sess)
	if _, err := srv.demux.TC.SegmentRead(sess.reply, 0, replySegSize); !errors.Is(err, kernel.ErrLabel) {
		t.Errorf("demux read of reply segment: err = %v, want ErrLabel", err)
	}
}

// TestConcurrentCrossUserIsolation hammers the session cache from many
// goroutines with a buggy handler that always tries to read the other
// user's profile.  The kernel's label checks — not anything in webd — must
// keep every response clean.  Run with -race this also exercises the
// lane/session locking.
func TestConcurrentCrossUserIsolation(t *testing.T) {
	srv, _ := bootWebCfg(t, Config{MaxSessions: 2, Lanes: 2, MaxBatch: 4})
	srv.app = func(worker *unixlib.Process, user, path string) (string, error) {
		other := "alice"
		if user == "alice" {
			other = "bob"
		}
		if data, err := worker.ReadFile("/home/" + other + "/profile"); err == nil {
			return "LEAK:" + string(data), nil
		}
		own, err := worker.ReadFile("/home/" + user + "/profile")
		if err != nil {
			return "no profile yet", nil
		}
		return "own:" + string(own), nil
	}
	// Seed both profiles through the real app (the leaky handler above only
	// reads), then swap the leaky handler back in.
	leaky := srv.app
	srv.app = ProfileApp
	for _, u := range []struct{ name, pw, v string }{{"alice", "wonderland", "alice-secret"}, {"bob", "builder", "bob-secret"}} {
		if _, err := srv.Serve(Request{User: u.name, Password: u.pw, Path: "/profile/set/" + u.v}); err != nil {
			t.Fatal(err)
		}
	}
	srv.app = leaky

	var wg sync.WaitGroup
	errs := make(chan string, 64)
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			user, pw, own := "alice", "wonderland", "alice-secret"
			if g%2 == 1 {
				user, pw, own = "bob", "builder", "bob-secret"
			}
			for i := 0; i < 25; i++ {
				resp, err := srv.Serve(Request{User: user, Password: pw, Path: "/x"})
				if err != nil {
					errs <- "serve error: " + err.Error()
					return
				}
				if strings.Contains(resp, "LEAK:") {
					errs <- "cross-user leak: " + resp
					return
				}
				if !strings.Contains(resp, "own:"+own) {
					errs <- "wrong user's data for " + user + ": " + resp
					return
				}
				if i%10 == 9 {
					srv.Logout(user)
				}
			}
		}(g)
	}
	wg.Wait()
	close(errs)
	for e := range errs {
		t.Error(e)
	}
}

// TestReplyLongThenShort: the reply segment starts empty and keeps the length
// of the longest reply written into it, so a short reply after a long one
// lies over the long one's tail; the lane must still decode exactly the short
// body (and an application error after it), from the header's length.
func TestReplyLongThenShort(t *testing.T) {
	srv, _ := bootWebCfg(t, Config{})
	long := strings.Repeat("L", 3000)
	srv.app = func(_ *unixlib.Process, _, path string) (string, error) {
		switch path {
		case "/long":
			return long, nil
		case "/fail":
			return "", errors.New("no such page")
		}
		return "short", nil
	}
	longest := 0
	for _, c := range []struct{ path, want, err string }{
		{"/short", "short", ""}, {"/long", long, ""}, {"/short", "short", ""}, {"/fail", "", "no such page"}, {"/short", "short", ""},
	} {
		got, err := srv.Serve(Request{User: "alice", Password: "wonderland", Path: c.path})
		got = strings.TrimPrefix(got, "HTTP/1.0 200 OK\r\n\r\n")
		if got != c.want || (err == nil) != (c.err == "") || err != nil && err.Error() != c.err {
			t.Fatalf("%s: %d-byte body %.10q, err %v; want %d bytes, err %q", c.path, len(got), got, err, len(c.want), c.err)
		}
		longest = max(longest, len(c.want)+len(c.err))
		if n := replyLen(t, srv); n != replyHeaderSize+longest {
			t.Fatalf("after %s the reply segment is %d bytes, want %d: as long as the longest reply yet", c.path, n, replyHeaderSize+longest)
		}
	}
}

// replyLen returns the length of alice's reply segment, which is what a
// lane's read of it copies.
func replyLen(t *testing.T, srv *Server) int {
	t.Helper()
	sess, err := srv.sessions.acquire("alice", "wonderland")
	if err != nil {
		t.Fatal(err)
	}
	defer srv.sessions.release(sess)
	n, err := sess.worker.TC.SegmentLen(sess.reply)
	if err != nil {
		t.Fatal(err)
	}
	return n
}

// TestReplyFullPayloadFitsQuota: the longest payload a frame carries, 4,091
// bytes, fits the quota of a reply segment created at length 0 (the kernel's
// 16 KiB slack), and a longer one is cut to it.
func TestReplyFullPayloadFitsQuota(t *testing.T) {
	srv, _ := bootWebCfg(t, Config{})
	full := strings.Repeat("F", replySegSize-replyHeaderSize)
	srv.app = func(_ *unixlib.Process, _, path string) (string, error) {
		if path == "/over" {
			return full + "past the frame", nil
		}
		return full, nil
	}
	for _, path := range []string{"/full", "/over"} {
		got, err := srv.Serve(Request{User: "alice", Password: "wonderland", Path: path})
		if got = strings.TrimPrefix(got, "HTTP/1.0 200 OK\r\n\r\n"); err != nil || got != full {
			t.Fatalf("%s: %d-byte body, %v; want the %d-byte payload", path, len(got), err, len(full))
		}
	}
	if n := replyLen(t, srv); n != replySegSize {
		t.Errorf("reply segment is %d bytes, want one full frame, %d", n, replySegSize)
	}
}
