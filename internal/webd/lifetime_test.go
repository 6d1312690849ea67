package webd

import (
	"errors"
	"fmt"
	"slices"
	"testing"

	"histar/internal/auth"
	"histar/internal/kernel"
	"histar/internal/unixlib"
)

// bootWebUsers boots a server with n registered users u0..u(n-1), password
// "pw<i>", and a golden sandbox image, so a cold login exercises everything
// a session owns.
func bootWebUsers(t *testing.T, n int, cfg Config) (*Server, *unixlib.System) {
	t.Helper()
	sys, err := unixlib.Boot(unixlib.BootOptions{KernelConfig: kernel.Config{Seed: 23}})
	if err != nil {
		t.Fatal(err)
	}
	authSvc := auth.New(sys)
	for i := 0; i < n; i++ {
		if _, err := authSvc.Register(fmt.Sprintf("u%d", i), fmt.Sprintf("pw%d", i)); err != nil {
			t.Fatal(err)
		}
	}
	tmpl, err := sys.AddUser("goldentmpl")
	if err != nil {
		t.Fatal(err)
	}
	if cfg.Golden, err = sys.BakeGoldenData("sandbox", tmpl, 64<<10); err != nil {
		t.Fatal(err)
	}
	srv := NewWithConfig(sys, authSvc, ProfileApp, cfg)
	t.Cleanup(srv.Close)
	return srv, sys
}

// longLivedLabelSizes returns the explicit-pair counts of the label and
// clearance of every thread that outlives a session: the bootstrap thread and
// the demultiplexer's main (launcher) and lane threads.
func longLivedLabelSizes(t *testing.T, srv *Server, sys *unixlib.System) []int {
	t.Helper()
	tcs := []*kernel.ThreadCall{sys.InitThread()}
	ids, err := srv.demux.TC.ContainerList(kernel.CEnt{Container: sys.Kern.RootContainer(), Object: srv.demux.ProcCt})
	if err != nil {
		t.Fatal(err)
	}
	for _, id := range ids {
		// ThreadCall refuses anything that is not a thread.
		if tc, err := sys.Kern.ThreadCall(id); err == nil {
			tcs = append(tcs, tc)
		}
	}
	if want := 2 + srv.cfg.Lanes; len(tcs) != want {
		t.Fatalf("found %d long-lived threads, want %d", len(tcs), want)
	}
	var sizes []int
	for _, tc := range tcs {
		lbl, err := tc.SelfLabel()
		if err != nil {
			t.Fatal(err)
		}
		clr, err := tc.SelfClearance()
		if err != nil {
			t.Fatal(err)
		}
		sizes = append(sizes, lbl.NumExplicit(), clr.NumExplicit())
	}
	return sizes
}

// TestBadPasswordLeavesNoObjects: a rejected cold login must cost the server
// nothing it keeps — no worker container, no category on the launcher or the
// bootstrap thread — or wrong passwords are a way to exhaust it.
func TestBadPasswordLeavesNoObjects(t *testing.T) {
	srv, sys := bootWebUsers(t, 2, Config{})
	if _, err := srv.Serve(Request{User: "u0", Password: "pw0", Path: "/profile/set/v"}); err != nil {
		t.Fatal(err)
	}
	objs, sizes := sys.Kern.ObjectCount(), longLivedLabelSizes(t, srv, sys)
	for i := 0; i < 200; i++ {
		if _, err := srv.Serve(Request{User: "u1", Password: "wrong", Path: "/profile"}); !errors.Is(err, ErrUnauthorized) {
			t.Fatalf("attempt %d: err = %v, want ErrUnauthorized", i, err)
		}
	}
	if got := sys.Kern.ObjectCount(); got != objs {
		t.Errorf("200 rejected logins changed the object count from %d to %d", objs, got)
	}
	if got := longLivedLabelSizes(t, srv, sys); !slices.Equal(got, sizes) {
		t.Errorf("200 rejected logins changed long-lived label sizes from %v to %v", sizes, got)
	}
	if st := srv.SessionStats(); st.BadPasswords != 200 || st.Live != 1 {
		t.Errorf("bad passwords = %d, live = %d; want 200, 1", st.BadPasswords, st.Live)
	}
}

// TestChurnLeavesNoObjects cycles four times as many users as the cache holds
// through eviction and logout.  After a first lap (which creates each user's
// profile file) a second lap must leave the kernel exactly as it found it:
// the same number of objects, the same label sizes on every long-lived
// thread.
func TestChurnLeavesNoObjects(t *testing.T) {
	const maxSessions = 4
	srv, sys := bootWebUsers(t, 4*maxSessions, Config{MaxSessions: maxSessions})
	lap := func() {
		for pass := 0; pass < 2; pass++ {
			for i := 0; i < 4*maxSessions; i++ {
				name := fmt.Sprintf("u%d", i)
				if _, err := srv.Serve(Request{User: name, Password: fmt.Sprintf("pw%d", i), Path: "/profile/set/v"}); err != nil {
					t.Fatalf("%s: %v", name, err)
				}
				if pass == 1 && i%2 == 0 && !srv.Logout(name) {
					t.Fatalf("%s: logout found no session", name)
				}
			}
		}
		for i := 0; i < 4*maxSessions; i++ {
			srv.Logout(fmt.Sprintf("u%d", i))
		}
	}
	lap()
	objs, sizes := sys.Kern.ObjectCount(), longLivedLabelSizes(t, srv, sys)
	lap()
	if got := sys.Kern.ObjectCount(); got != objs {
		t.Errorf("second lap changed the object count from %d to %d", objs, got)
	}
	if got := longLivedLabelSizes(t, srv, sys); !slices.Equal(got, sizes) {
		t.Errorf("second lap changed long-lived label sizes from %v to %v", sizes, got)
	}
	if st := srv.SessionStats(); st.Live != 0 || st.Evictions == 0 || st.Logouts == 0 {
		t.Errorf("stats after churn: %+v", st)
	}
}
