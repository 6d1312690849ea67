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
//     container, sandbox clone, reply segment and serve gate whether the
//     session was evicted, logged out, closed or never got past its login.
//
//   - Each cached worker exposes a serve gate (label {ur⋆, uw⋆, 1}) whose
//     entry runs the application handler and writes the response into a
//     reply segment labeled {ur3, uw0, 1}.  Responses are therefore tainted
//     with the user's secrecy from the moment they exist: nothing that has
//     not entered the user's gate can observe them.
//
//   - The demultiplexer is one process with several lane threads.  Each lane
//     drains a batch of requests from the server's queue and drives its own
//     syscall ring: per request, one OpGateEnter (which transfers the lane
//     to the session's requested label — its own base plus that user's
//     ur⋆/uw⋆) chained to one OpSegmentRead of the reply segment, checked
//     against the post-entry label.  After the batch the lane resets itself
//     to its base label, so user privileges never outlive the batch and
//     never accumulate across users: each gate transfer replaces the label
//     outright.
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
	// Lanes is the number of demultiplexer threads, each with its own ring
	// (default 4).
	Lanes int
	// MaxBatch caps how many requests one lane submits per ring Wait
	// (default 16).
	MaxBatch int
	// Golden, when set, makes the cold-login path spawn the user's sandbox
	// by cloning this golden image (O(metadata): template categories are
	// remapped to the user's, all data is shared copy-on-write).  The
	// sandbox lives in the worker's process container, so session teardown
	// reclaims it with the worker.
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
	if c.MaxBatch <= 0 {
		c.MaxBatch = 16
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
	reqCh    chan *pending
	quit     chan struct{}
	wg       sync.WaitGroup

	// laneBase is the demux process's base thread label; session request
	// labels extend it with the user's categories.
	laneBase label.Label

	startOnce sync.Once
	startErr  error
	demux     *unixlib.Process
}

// ErrUnauthorized is returned for bad credentials.
var ErrUnauthorized = errors.New("webd: unauthorized")

// New builds a server with default configuration.
func New(sys *unixlib.System, authSvc *auth.Service, app Handler) *Server {
	return NewWithConfig(sys, authSvc, app, Config{})
}

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
		reqCh: make(chan *pending, cfg.Lanes*cfg.MaxBatch),
		quit:  make(chan struct{}),
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

// pending is one request in flight between a client goroutine and a lane.
// The client holds its session's mutex from enqueue to completion, so a lane
// never sees two pendings for one session in a batch.
type pending struct {
	sess *session
	path string
	done chan struct{}
	body string
	err  error
}

// lane is one demultiplexer thread: its own syscall context, ring, and the
// base label/clearance it returns to between batches.
type lane struct {
	tc   *kernel.ThreadCall
	ring *kernel.Ring
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
			ln := &lane{tc: tc, ring: tc.NewRing(), base: base, clr: clr}
			s.wg.Add(1)
			go s.laneLoop(ln)
		}
	})
	return s.startErr
}

// Serve authenticates the request and runs the application handler in the
// user's worker, returning the response.  The
// warm path is: verifier check, enqueue to a lane, one batched gate call,
// one chained reply read.
func (s *Server) Serve(req Request) (string, error) {
	if err := s.start(); err != nil {
		return "", err
	}
	for attempt := 0; attempt < 3; attempt++ {
		sess, err := s.sessions.acquire(req.User, req.Password)
		if err != nil {
			return "", err
		}
		p := &pending{sess: sess, path: req.Path, done: make(chan struct{})}
		s.reqCh <- p
		<-p.done
		s.sessions.release(sess)
		if p.err != nil {
			// A torn-down session (logout or eviction racing the enqueue)
			// surfaces as a kernel error on the gate call; retry cold.
			if errors.Is(p.err, kernel.ErrNoSuchObject) || errors.Is(p.err, kernel.ErrSkipped) {
				s.sessions.remove(sess)
				continue
			}
			return "", p.err
		}
		return "HTTP/1.0 200 OK\r\n\r\n" + p.body, nil
	}
	return "", errors.New("webd: session kept disappearing")
}

// laneLoop drains batches of pendings and drives them through the lane's
// ring: per pending an OpGateEnter chained to an OpSegmentRead of the reply.
func (s *Server) laneLoop(ln *lane) {
	defer s.wg.Done()
	batch := make([]*pending, 0, s.cfg.MaxBatch)
	for {
		select {
		case <-s.quit:
			return
		case p := <-s.reqCh:
			batch = append(batch[:0], p)
			for len(batch) < s.cfg.MaxBatch {
				select {
				case q := <-s.reqCh:
					batch = append(batch, q)
				default:
					goto full
				}
			}
		full:
			s.runBatch(ln, batch)
		}
	}
}

// runBatch submits one chain per pending and completes them from the ring's
// completion queue.  Each gate entry replaces the lane's label with that
// session's requested label, and the chained read is checked against it; the
// lane drops back to its base label before handing results back.
func (s *Server) runBatch(ln *lane, batch []*pending) {
	for _, p := range batch {
		ln.ring.Submit(
			kernel.RingEntry{Op: kernel.OpGateEnter, Seg: p.sess.gate, Gate: &kernel.GateRequest{
				Label:     p.sess.reqLabel,
				Clearance: ln.clr,
				Verify:    ln.base,
				Args:      []byte(p.path),
			}},
			kernel.RingEntry{Op: kernel.OpSegmentRead, Seg: p.sess.reply, Len: replySegSize, Chain: true},
		)
	}
	comps, err := ln.ring.Wait(0)
	// Shed the last session's categories before anyone consumes results.
	_ = ln.tc.SelfSetLabel(ln.base)
	for i, p := range batch {
		switch {
		case err != nil:
			p.err = err
		case comps[2*i].Err != nil:
			p.err = comps[2*i].Err
		case len(comps[2*i].Val) > 0:
			p.err = errors.New("webd: " + string(comps[2*i].Val))
		case comps[2*i+1].Err != nil:
			p.err = comps[2*i+1].Err
		default:
			p.body, p.err = decodeReply(comps[2*i+1].Val)
		}
		close(p.done)
	}
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

// Close stops the lanes and tears down every cached session and the
// demultiplexer process.  In-flight Serve calls must have drained first.
func (s *Server) Close() {
	close(s.quit)
	s.wg.Wait()
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
