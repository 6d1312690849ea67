// Package webd is the Asbestos-style web service of Section 6.4 at
// production scale: a connection demultiplexer hands each request to a
// per-user worker whose label carries that user's categories, so buggy or
// malicious web application code cannot mix one user's data into another
// user's response.  Authentication uses the Section 6.2 service (package
// auth).
//
// The steady-state architecture has three layers:
//
//   - A session cache (bounded LRU with idle eviction and explicit logout)
//     keeps one authenticated worker process per recently seen user.  A cold
//     request pays for process creation and the full gate login protocol; a
//     warm request re-checks the credential against the stored verifier and
//     reuses the worker.  Workers are children of the demultiplexer process,
//     whose main thread is the launcher: it builds each worker and sheds the
//     worker's categories before the login starts, so the bootstrap thread —
//     owner of every user's ur⋆/uw⋆ — is never on the request path and a
//     cold login costs the same after a million sessions as after one.
//     Every worker leaves through one discard step (sessionCache.discard):
//     it exits and the launcher reaps it, which reclaims its process
//     container, sandbox, reply segment and serve gate whether the
//     session was evicted, logged out, closed or never got past its login.
//
//   - Each cached worker exposes a serve gate (label {ur⋆, uw⋆, 1}) whose
//     entry runs the application handler and writes the response into a
//     reply segment labeled {ur3, uw0, 1}.  Responses are therefore tainted
//     with the user's secrecy from the moment they exist: nothing that has
//     not entered the user's gate can observe them.
//
//   - The demultiplexer is one process with a pool of lane threads.  A
//     request runs on its caller's goroutine, holding its session: it takes
//     a lane, makes one GateEnter (which transfers the lane to the session's
//     requested label — its own base plus that user's ur⋆/uw⋆) and, if that
//     succeeded, one SegmentRead of the reply, checked against the
//     post-entry label, then resets the lane to its base label and returns
//     it, so user privileges never outlive the request and never accumulate
//     across users: each gate transfer replaces the label outright.
//
// The kernel enforces the isolation story — the lane holds exactly one
// user's categories at a time, and the only path to a reply is through that
// user's gate.
package webd

import (
	"errors"
	"fmt"
	"strings"
	"sync"
	"time"

	"histar/internal/auth"
	"histar/internal/kernel"
	"histar/internal/label"
	"histar/internal/unixlib"
)

// Handler is the (untrusted) web application code, run in a per-user worker
// process with only that user's privileges.
type Handler func(worker *unixlib.Process, user, path string) (string, error)

// Config tunes the server; the zero value picks the defaults.
type Config struct {
	// MaxSessions bounds the session cache (default 128).  Past it the
	// least-recently-used session's worker is torn down.
	MaxSessions int
	// IdleTimeout evicts sessions unused for this long (default 5m; < 0
	// disables idle eviction).
	IdleTimeout time.Duration
	// Lanes is the number of demultiplexer threads, each serving one
	// request at a time (default 4).
	Lanes int
	// Golden, when set, makes the cold-login path spawn the user's sandbox
	// from this golden image (O(metadata): the build's labels with the
	// template's categories replaced by the user's, all data shared
	// copy-on-write).  The image is public by construction — its baker
	// declassified it to {1} — so it must hold nothing a user may not read.
	// The sandbox lives in the worker's process container, so session
	// teardown reclaims it with the worker.
	Golden *unixlib.GoldenImage
}

func (c Config) withDefaults() Config {
	if c.MaxSessions <= 0 {
		c.MaxSessions = 128
	}
	if c.IdleTimeout == 0 {
		c.IdleTimeout = 5 * time.Minute
	}
	if c.Lanes <= 0 {
		c.Lanes = 4
	}
	return c
}

// Server is the web service: demultiplexer lanes + session-cached per-user
// workers.
type Server struct {
	sys  *unixlib.System
	auth *auth.Service
	app  Handler
	cfg  Config

	sessions *sessionCache
	lanes    chan *lane // the idle demultiplexer threads

	// laneBase is the demux process's base thread label; session request
	// labels extend it with the user's categories.
	laneBase label.Label

	startOnce sync.Once
	startErr  error
	demux     *unixlib.Process
}

// ErrUnauthorized is returned for bad credentials.
var ErrUnauthorized = errors.New("webd: unauthorized")

// NewWithConfig builds a server around an authentication service and an
// application handler.  The demultiplexer process and its lanes start
// lazily, on the first request.
func NewWithConfig(sys *unixlib.System, authSvc *auth.Service, app Handler, cfg Config) *Server {
	cfg = cfg.withDefaults()
	s := &Server{
		sys:   sys,
		auth:  authSvc,
		app:   app,
		cfg:   cfg,
		lanes: make(chan *lane, cfg.Lanes),
	}
	s.sessions = newSessionCache(s, cfg.MaxSessions, cfg.IdleTimeout)
	return s
}

// Request is one HTTP-ish request.
type Request struct {
	User     string
	Password string
	Path     string
}

// lane is one demultiplexer thread: its own syscall context and the base
// label/clearance it returns to after every request.
type lane struct {
	tc   *kernel.ThreadCall
	base label.Label
	clr  label.Label
}

// start creates the demultiplexer process and its lane threads.  The
// process's main thread, idle once the lanes exist, is the launcher: it
// already has the label a launcher wants ({pr⋆, pw⋆, 1} and no user's
// categories), the lanes are kernel threads of their own and so never see
// the worker categories it holds while building one, and a second process
// would add a process's worth of objects to isolate it from nothing it can
// reach.
func (s *Server) start() error {
	s.startOnce.Do(func() {
		demux, err := s.sys.NewInitProcess("")
		if err != nil {
			s.startErr = err
			return
		}
		s.demux = demux
		s.laneBase, _ = demux.TC.SelfLabel()
		for i := 0; i < s.cfg.Lanes; i++ {
			tc, err := demux.NewThread(fmt.Sprintf("webd lane %d", i))
			if err != nil {
				s.startErr = err
				return
			}
			base, _ := tc.SelfLabel()
			clr, _ := tc.SelfClearance()
			s.lanes <- &lane{tc: tc, base: base, clr: clr}
		}
	})
	return s.startErr
}

// Serve authenticates the request and runs the application handler in the
// user's worker, returning the response.  The warm path is: verifier
// check, take a lane, one gate call, one reply read, one label reset.
func (s *Server) Serve(req Request) (string, error) {
	if err := s.start(); err != nil {
		return "", err
	}
	for attempt := 0; attempt < 3; attempt++ {
		sess, err := s.sessions.acquire(req.User, req.Password)
		if err != nil {
			return "", err
		}
		ln := <-s.lanes
		body, err := ln.serve(sess, req.Path)
		s.lanes <- ln
		s.sessions.release(sess)
		if err != nil {
			// A torn-down session (its gate or reply segment gone before
			// the lane reached it) surfaces as ErrNoSuchObject from the
			// gate entry or the reply read; retry cold.
			if errors.Is(err, kernel.ErrNoSuchObject) {
				s.sessions.remove(sess)
				continue
			}
			return "", err
		}
		return "HTTP/1.0 200 OK\r\n\r\n" + body, nil
	}
	return "", errors.New("webd: session kept disappearing")
}

// serve makes one request on the lane: one gate entry, which replaces the
// lane's label with the session's requested label, and, if that succeeded,
// one read of the reply, checked against that label.  The lane drops back to
// its base label before it returns, so it holds one user's categories for
// one request and never carries them into the next.
func (ln *lane) serve(sess *session, path string) (body string, err error) {
	val, err := ln.tc.GateEnter(sess.gate, kernel.GateRequest{
		Label:     sess.reqLabel,
		Clearance: ln.clr,
		Verify:    ln.base,
		Args:      []byte(path),
	})
	switch {
	case err != nil:
	case len(val) > 0:
		err = errors.New("webd: " + string(val))
	default:
		var frame []byte
		if frame, err = ln.tc.SegmentRead(sess.reply, 0, replySegSize); err == nil {
			body, err = decodeReply(frame)
		}
	}
	_ = ln.tc.SelfSetLabel(ln.base)
	return body, err
}

// Logout invalidates the user's cached session, reporting whether one
// existed; the user's next request pays a full login.
func (s *Server) Logout(user string) bool {
	return s.sessions.logout(user)
}

// SessionStats returns session-cache counters.
func (s *Server) SessionStats() SessionStats {
	return s.sessions.stats()
}

// Close tears down every cached session and the demultiplexer process.
// In-flight Serve calls must have drained first.
func (s *Server) Close() {
	s.sessions.close()
	if s.demux != nil {
		s.demux.ExitQuietly()
		_ = s.sys.InitThread().Unref(s.sys.Kern.RootContainer(), s.demux.ProcCt)
	}
}

// ProfileApp is a tiny demo application: it stores and retrieves per-user
// profile data under /home/<user>/profile, labeled with the user's
// categories, so the only way it could ever serve one user's profile to
// another is if the kernel's label checks failed.
func ProfileApp(worker *unixlib.Process, user, path string) (string, error) {
	profile := "/home/" + user + "/profile"
	switch {
	case strings.HasPrefix(path, "/profile/set/"):
		value := strings.TrimPrefix(path, "/profile/set/")
		if err := worker.WriteFile(profile, []byte(value), label.Label{}); err != nil {
			return "", err
		}
		return "stored", nil
	case path == "/profile":
		data, err := worker.ReadFile(profile)
		if err != nil {
			return "", err
		}
		return string(data), nil
	default:
		return "", fmt.Errorf("webd: no route for %q", path)
	}
}
