package webd

import (
	"container/list"
	"encoding/binary"
	"errors"
	"fmt"
	"sync"
	"sync/atomic"
	"time"

	"histar/internal/kernel"
	"histar/internal/label"
	"histar/internal/unixlib"
)

// A session is one authenticated per-user worker kept warm across requests.
// Cold creation runs the full auth gate protocol (package auth) once; after
// that, requests reach the worker through its serve gate and the only
// per-request authentication work is re-checking the presented credential.
//
// Locking: a client goroutine holds mu from acquire until its request's
// completion arrives from the lane, so at most one request per session is in
// flight and lane goroutines never lock sessions.  lastUsed is atomic so the
// cache can sweep for idleness without touching mu.  elem is guarded by the
// cache lock, dead by mu.
type session struct {
	user   string
	worker *unixlib.Process
	// gate is the worker's serve gate: label {ur⋆, uw⋆, 1}, clearance {2}.
	// Entering it is what hands the demultiplexer lane the user's categories
	// for the duration of one request.
	gate kernel.CEnt
	// reply is the response segment, labeled {ur3, uw0, 1}: tainted with the
	// user's secrecy, so only a thread holding ur (i.e. a lane that came
	// through the gate) can read the response out of it.
	reply kernel.CEnt
	// reqLabel is the label a lane requests on gate entry: the
	// lane's own base label plus ur⋆/uw⋆.  Precomputed once so steady-state
	// gate calls do no label construction.
	reqLabel label.Label
	// sandbox is the root of the user's per-session sandbox (a golden-image
	// clone), linked in the worker's process container so teardown reclaims
	// it with the worker.  NilID when no golden image is configured.
	sandbox kernel.ID

	// ready is closed once cold creation finishes; initErr records its
	// outcome.  Concurrent clients for the same user wait on ready instead of
	// each running a cold login (single-flight).
	ready   chan struct{}
	initErr error

	mu   sync.Mutex
	dead bool

	lastUsed atomic.Int64 // unix nanoseconds
	elem     *list.Element
}

// SessionStats counts session-cache activity.
type SessionStats struct {
	// Hits are acquisitions that found a live session; Misses triggered a
	// cold login.  ColdLogins counts full auth protocol runs (misses that got
	// as far as Login, successful or not).
	Hits, Misses, ColdLogins uint64
	// BadPasswords counts rejected credentials (hit or cold path).
	BadPasswords uint64
	// Evictions counts capacity evictions, IdleEvictions idle-timeout ones,
	// Logouts explicit invalidations.
	Evictions, IdleEvictions, Logouts uint64
	// GoldenSpawns counts cold logins whose sandbox came from a golden-image
	// clone.
	GoldenSpawns uint64
	// Live is the current number of cached sessions.
	Live int
}

// sessionCache is the bounded LRU of live sessions, keyed by user.
type sessionCache struct {
	srv  *Server
	max  int
	idle time.Duration

	mu  sync.Mutex
	m   map[string]*session
	lru *list.List // front = most recently used

	hits, misses, coldLogins, badPasswords atomic.Uint64
	evictions, idleEvictions, logouts      atomic.Uint64
	goldenSpawns                           atomic.Uint64
}

func newSessionCache(srv *Server, max int, idle time.Duration) *sessionCache {
	return &sessionCache{srv: srv, max: max, idle: idle, m: make(map[string]*session), lru: list.New()}
}

// acquire returns the user's session with sess.mu held, authenticating the
// presented password on the way: a full Login on a cold miss, a verifier
// check on a hit.  The caller must release() the session when its request
// completes.
func (c *sessionCache) acquire(user, password string) (*session, error) {
	for {
		now := time.Now()
		c.mu.Lock()
		for _, v := range c.sweepLocked(now) {
			c.mu.Unlock()
			c.teardown(v)
			c.mu.Lock()
		}
		if sess, ok := c.m[user]; ok {
			c.lru.MoveToFront(sess.elem)
			c.mu.Unlock()
			<-sess.ready
			if sess.initErr != nil {
				// The creator's cold login failed; drop the placeholder and
				// retry with our own credential.
				c.remove(sess)
				continue
			}
			c.hits.Add(1)
			// A hit still authenticates: the cached worker proves a past
			// login, not this request's credential.
			if err := c.srv.auth.Verify(user, password); err != nil {
				c.badPasswords.Add(1)
				return nil, fmt.Errorf("%w: %v", ErrUnauthorized, err)
			}
			sess.mu.Lock()
			if sess.dead {
				sess.mu.Unlock()
				continue
			}
			return sess, nil
		}
		// Miss: insert a placeholder (so concurrent requests for this user
		// wait instead of racing cold logins), evict past capacity, then run
		// the cold path outside the cache lock.
		c.misses.Add(1)
		sess := &session{user: user, ready: make(chan struct{})}
		sess.lastUsed.Store(now.UnixNano())
		sess.elem = c.lru.PushFront(sess)
		c.m[user] = sess
		var victims []*session
		for c.lru.Len() > c.max {
			v := c.lru.Back().Value.(*session)
			c.detachLocked(v)
			c.evictions.Add(1)
			victims = append(victims, v)
		}
		c.mu.Unlock()
		for _, v := range victims {
			c.teardown(v)
		}
		err := c.establish(sess, password)
		if err != nil {
			sess.initErr = err
			close(sess.ready)
			c.remove(sess)
			return nil, err
		}
		close(sess.ready)
		sess.mu.Lock()
		if sess.dead {
			// Evicted before first use (capacity churn); retry.
			sess.mu.Unlock()
			continue
		}
		return sess, nil
	}
}

// release marks the session recently used and releases it to other clients.
func (c *sessionCache) release(sess *session) {
	sess.lastUsed.Store(time.Now().UnixNano())
	sess.mu.Unlock()
}

// establish runs the cold path: the launcher builds a fresh unprivileged
// worker, and setup logs it in and gives it a reply segment and a serve gate.
// A worker that setup could not finish is discarded, so a rejected login
// costs the server nothing it keeps.
func (c *sessionCache) establish(sess *session, password string) error {
	worker, err := c.srv.demux.NewChild()
	if err != nil {
		return err
	}
	c.coldLogins.Add(1)
	if err := c.setup(sess, worker, password); err != nil {
		c.discard(worker)
		return err
	}
	return nil
}

// discard is the one way a worker leaves, whether its session was evicted,
// logged out, closed or never established: the worker exits and the launcher
// reaps it, which unlinks its process container and with it the sandbox
// clone, the reply segment and the serve gate.
func (c *sessionCache) discard(worker *unixlib.Process) {
	worker.ExitQuietly()
	_, _ = c.srv.demux.Wait(worker)
}

// setup runs the full gate login on worker, then creates the session's
// sandbox, reply segment and serve gate with the worker's own (now
// user-held) privileges.
func (c *sessionCache) setup(sess *session, worker *unixlib.Process, password string) error {
	if err := c.srv.auth.Login(worker, sess.user, password); err != nil {
		c.badPasswords.Add(1)
		return fmt.Errorf("%w: %v", ErrUnauthorized, err)
	}
	tc, u := worker.TC, worker.User
	srv := c.srv
	// Per-user sandbox: cloned from the golden image in O(metadata) (all
	// read-only data — programs, dirsegs, scanner DB — shared COW until
	// first write).  It lives in the worker's process container, so reaping
	// the worker reclaims it.
	if g := srv.cfg.Golden; g != nil {
		res, err := srv.sys.SpawnFromGolden(tc, g, worker.ProcCt, u)
		if err != nil {
			return err
		}
		sess.sandbox = res.Root
		c.goldenSpawns.Add(1)
	}
	// Reply segment {ur3, uw0, 1}: response bytes are tainted with the
	// user's secrecy the moment they are written, so even a demultiplexer
	// bug cannot hand them to a lane that has not entered this user's gate.
	replyLbl := label.New(label.L1, label.P(u.Ur, label.L3), label.P(u.Uw, label.L0))
	rid, err := tc.SegmentCreate(worker.ProcCt, replyLbl, "webd reply "+sess.user, 0)
	if err != nil {
		return err
	}
	reply := kernel.CEnt{Container: worker.ProcCt, Object: rid}
	gateLbl := label.New(label.L1, label.P(u.Ur, label.Star), label.P(u.Uw, label.Star))
	gid, err := tc.GateCreate(worker.ProcCt, kernel.GateSpec{
		Label:     gateLbl,
		Clearance: label.New(label.L2),
		Descrip:   "webd serve " + sess.user,
		Entry: func(call *kernel.GateCallCtx) []byte {
			// Runs on the lane thread, which now holds ur⋆/uw⋆.  The
			// application itself uses the worker process (its files, its
			// privileges); only the reply write needs the entering thread.
			body, herr := srv.app(worker, sess.user, string(call.Args))
			if werr := call.TC.SegmentWrite(reply, 0, encodeReply(body, herr)); werr != nil {
				return []byte("ERR reply write: " + werr.Error())
			}
			return nil
		},
	})
	if err != nil {
		return err
	}
	sess.worker = worker
	sess.gate = kernel.CEnt{Container: worker.ProcCt, Object: gid}
	sess.reply = reply
	sess.reqLabel = srv.laneBase.With(u.Ur, label.Star).With(u.Uw, label.Star)
	return nil
}

// sweepLocked detaches sessions idle past the timeout and returns them for
// teardown (which must happen without the cache lock).  Called with c.mu.
func (c *sessionCache) sweepLocked(now time.Time) []*session {
	if c.idle <= 0 {
		return nil
	}
	cutoff := now.Add(-c.idle).UnixNano()
	var victims []*session
	for e := c.lru.Back(); e != nil; {
		v := e.Value.(*session)
		if v.lastUsed.Load() >= cutoff {
			break
		}
		e = e.Prev()
		c.detachLocked(v)
		c.idleEvictions.Add(1)
		victims = append(victims, v)
	}
	return victims
}

// detachLocked unlinks a session from the map and LRU list.  Called with
// c.mu; teardown happens later, without it.
func (c *sessionCache) detachLocked(v *session) {
	delete(c.m, v.user)
	c.lru.Remove(v.elem)
}

// remove detaches sess if it is still the cached session for its user.
func (c *sessionCache) remove(sess *session) {
	c.mu.Lock()
	if c.m[sess.user] == sess {
		c.detachLocked(sess)
	}
	c.mu.Unlock()
}

// teardown discards a detached session's worker.  It waits for cold creation to
// finish (creators never block on other sessions, so this terminates) and
// for any in-flight request to drain (the client holds sess.mu across its
// request).
func (c *sessionCache) teardown(v *session) {
	<-v.ready
	v.mu.Lock()
	if !v.dead {
		v.dead = true
		if v.worker != nil {
			c.discard(v.worker)
		}
	}
	v.mu.Unlock()
}

// logout invalidates the user's cached session, reporting whether one
// existed.  The next request runs a full login.
func (c *sessionCache) logout(user string) bool {
	c.mu.Lock()
	sess, ok := c.m[user]
	if ok {
		c.detachLocked(sess)
	}
	c.mu.Unlock()
	if ok {
		c.logouts.Add(1)
		c.teardown(sess)
	}
	return ok
}

// close tears down every cached session.
func (c *sessionCache) close() {
	c.mu.Lock()
	var victims []*session
	for e := c.lru.Front(); e != nil; e = e.Next() {
		victims = append(victims, e.Value.(*session))
	}
	c.m = make(map[string]*session)
	c.lru.Init()
	c.mu.Unlock()
	for _, v := range victims {
		c.teardown(v)
	}
}

func (c *sessionCache) stats() SessionStats {
	c.mu.Lock()
	live := c.lru.Len()
	c.mu.Unlock()
	return SessionStats{
		Hits:          c.hits.Load(),
		Misses:        c.misses.Load(),
		ColdLogins:    c.coldLogins.Load(),
		BadPasswords:  c.badPasswords.Load(),
		Evictions:     c.evictions.Load(),
		IdleEvictions: c.idleEvictions.Load(),
		Logouts:       c.logouts.Load(),
		GoldenSpawns:  c.goldenSpawns.Load(),
		Live:          live,
	}
}

// Reply segment framing: [4-byte little-endian payload length][1 status
// byte][payload].  Status 0 is success, 1 an application error (payload is
// the error text).  A frame is at most replySegSize bytes.  The segment starts
// empty and each reply is written at offset 0, so it is as long as the longest
// reply yet; lanes read it with one chained OpSegmentRead of up to
// replySegSize bytes, which copies that length, and decodeReply keeps the
// header's count of them.
const (
	replySegSize    = 4096
	replyHeaderSize = 5
	replyOK         = 0
	replyAppErr     = 1
)

func encodeReply(body string, appErr error) []byte {
	status := byte(replyOK)
	payload := body
	if appErr != nil {
		status = replyAppErr
		payload = appErr.Error()
	}
	if len(payload) > replySegSize-replyHeaderSize {
		payload = payload[:replySegSize-replyHeaderSize]
	}
	frame := make([]byte, replyHeaderSize+len(payload))
	binary.LittleEndian.PutUint32(frame[0:4], uint32(len(payload)))
	frame[4] = status
	copy(frame[replyHeaderSize:], payload)
	return frame
}

func decodeReply(frame []byte) (string, error) {
	if len(frame) < replyHeaderSize {
		return "", errors.New("webd: short reply frame")
	}
	n := int(binary.LittleEndian.Uint32(frame[0:4]))
	if n > len(frame)-replyHeaderSize {
		return "", errors.New("webd: corrupt reply frame")
	}
	payload := string(frame[replyHeaderSize : replyHeaderSize+n])
	if frame[4] != replyOK {
		return "", errors.New(payload)
	}
	return payload, nil
}
