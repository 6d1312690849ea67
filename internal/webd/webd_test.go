package webd

import (
	"errors"
	"strings"
	"testing"

	"histar/internal/auth"
	"histar/internal/kernel"
	"histar/internal/unixlib"
)

func bootWeb(t *testing.T) *Server {
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
	return NewWithConfig(sys, authSvc, ProfileApp, Config{})
}

func TestPerUserProfilesAreIsolated(t *testing.T) {
	srv := bootWeb(t)
	if _, err := srv.Serve(Request{User: "alice", Password: "wonderland", Path: "/profile/set/ssn=111-22-3333"}); err != nil {
		t.Fatal(err)
	}
	if _, err := srv.Serve(Request{User: "bob", Password: "builder", Path: "/profile/set/ssn=999-88-7777"}); err != nil {
		t.Fatal(err)
	}
	aliceResp, err := srv.Serve(Request{User: "alice", Password: "wonderland", Path: "/profile"})
	if err != nil || !strings.Contains(aliceResp, "111-22-3333") {
		t.Errorf("alice's profile = %q, %v", aliceResp, err)
	}
	bobResp, err := srv.Serve(Request{User: "bob", Password: "builder", Path: "/profile"})
	if err != nil || !strings.Contains(bobResp, "999-88-7777") {
		t.Errorf("bob's profile = %q, %v", bobResp, err)
	}
	if strings.Contains(bobResp, "111-22-3333") {
		t.Error("bob's response leaked alice's data")
	}
}

func TestBadPasswordRejected(t *testing.T) {
	srv := bootWeb(t)
	if _, err := srv.Serve(Request{User: "alice", Password: "wrong", Path: "/profile"}); !errors.Is(err, ErrUnauthorized) {
		t.Errorf("expected unauthorized, got %v", err)
	}
}

func TestBuggyHandlerCannotCrossUsers(t *testing.T) {
	// A malicious/buggy application handler tries to read another user's
	// profile directly; the kernel's label checks stop it regardless of the
	// application code.
	srv := bootWeb(t)
	srv.app = func(worker *unixlib.Process, user, path string) (string, error) {
		other := "alice"
		if user == "alice" {
			other = "bob"
		}
		if data, err := worker.ReadFile("/home/" + other + "/profile"); err == nil {
			return "LEAK:" + string(data), nil
		}
		return "denied as expected", nil
	}
	if _, err := srv.Serve(Request{User: "alice", Password: "wonderland", Path: "/profile/set/secret"}); err != nil {
		t.Fatal(err)
	}
	resp, err := srv.Serve(Request{User: "bob", Password: "builder", Path: "/anything"})
	if err != nil {
		t.Fatal(err)
	}
	if strings.Contains(resp, "LEAK:") {
		t.Error("buggy handler read another user's data")
	}
}
