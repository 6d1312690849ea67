// Package auth implements HiStar's untrusted user authentication
// (Section 6.2, Figures 8–10).  There is no highly trusted login process: a
// directory service maps usernames to per-user authentication daemons, each
// user's daemon owns that user's ur/uw categories and grants them to clients
// that prove knowledge of the password, and a logging service records
// attempts.  Password guesses are bounded by a retry-count segment, and what
// a compromised authentication service can learn is limited to the stored
// password hash plus the single success/failure bit per attempt.
//
// The login client supplies the session container, as in the paper's
// protocol: Login creates it inside the client's own process container and
// hands it to the setup gate, which creates the retry segment, check gate and
// grant gate there.  The client therefore pays for its login attempt and owns
// its lifetime — Login unlinks the container on every exit, and whatever is
// left goes when the client does — while the daemon's process container holds
// one setup gate however many logins it has served, and the setup gate's
// label carries the user's categories and nothing else.  A client that
// deletes a session object early only fails its own login: the check gate
// names the retry segment by object ID and refuses when it cannot read it.
//
// One simplification relative to the paper: the check-gate invocation here
// retains the login client's ownership of the password category pir instead
// of running tainted pir3 and recovering privilege through a separately
// created return gate.  The full tainted-call-plus-return-gate pattern is
// exercised at the kernel level (see TestReturnGatePattern in
// internal/kernel); layering it under this package would only change how the
// client sheds the taint, not which privileges the service can grant.
package auth

import (
	"crypto/sha256"
	"crypto/subtle"
	"encoding/binary"
	"encoding/hex"
	"errors"
	"strings"
	"sync"

	"histar/internal/kernel"
	"histar/internal/label"
	"histar/internal/unixlib"
)

// Errors.
var (
	ErrNoSuchUser     = errors.New("auth: no such user")
	ErrBadPassword    = errors.New("auth: authentication failed")
	ErrTooManyRetries = errors.New("auth: retry limit exceeded")
)

// MaxRetries bounds password guesses per login session, enforced through the
// retry-count segment the setup gate creates.
const MaxRetries = 3

// LogService is the append-only logging service (58 lines in the paper).
type LogService struct {
	mu      sync.Mutex
	entries []string
}

// Append records one log line.
func (l *LogService) Append(line string) {
	l.mu.Lock()
	defer l.mu.Unlock()
	l.entries = append(l.entries, line)
}

// Entries returns a copy of the log.
func (l *LogService) Entries() []string {
	l.mu.Lock()
	defer l.mu.Unlock()
	return append([]string(nil), l.entries...)
}

// userAuthService is one user's authentication daemon: it owns ur and uw,
// stores the password hash, and exposes the setup gate.
type userAuthService struct {
	user     *unixlib.User
	proc     *unixlib.Process
	passHash [32]byte
	setup    kernel.CEnt
}

// Service is the authentication facility: directory + per-user services +
// logger.
type Service struct {
	sys *unixlib.System
	Log *LogService

	mu    sync.Mutex
	users map[string]*userAuthService
}

// New creates an authentication service on sys.
func New(sys *unixlib.System) *Service {
	return &Service{sys: sys, Log: &LogService{}, users: make(map[string]*userAuthService)}
}

// hashPassword is the stored verifier; compromising the authentication
// service reveals only this, never the password itself.
func hashPassword(user, password string) [32]byte {
	return sha256.Sum256([]byte("histar-auth\x00" + user + "\x00" + password))
}

// Register creates the account (ur/uw categories plus home directory) and
// starts its authentication daemon.
func (s *Service) Register(username, password string) (*unixlib.User, error) {
	u, err := s.sys.AddUser(username)
	if err != nil && err != unixlib.ErrExist {
		return nil, err
	}
	if u == nil {
		u, _ = s.sys.LookupUser(username)
	}
	proc, err := s.sys.NewInitProcess(username)
	if err != nil {
		return nil, err
	}
	svc := &userAuthService{
		user:     u,
		proc:     proc,
		passHash: hashPassword(username, password),
	}
	if err := svc.createSetupGate(s); err != nil {
		return nil, err
	}
	s.mu.Lock()
	s.users[username] = svc
	s.mu.Unlock()
	s.Log.Append("registered " + username)
	return u, nil
}

// sessionState carries the per-login objects created by the setup gate
// (Figure 10): the session category x, the retry-count segment, and the
// check and grant gates.
type sessionState struct {
	x         label.Category
	checkGate kernel.CEnt
	grantGate kernel.CEnt
	retrySeg  kernel.CEnt
}

// createSetupGate builds the user's setup gate (step 2 of Figure 9).
func (svc *userAuthService) createSetupGate(s *Service) error {
	tc := svc.proc.TC
	u := svc.user
	// The gate carries the user's categories — that is what it ultimately
	// grants — and nothing else: the session objects it creates live in the
	// caller's session container, which the calling thread can write.
	gateLbl := label.New(label.L1, label.P(u.Ur, label.Star), label.P(u.Uw, label.Star))
	gid, err := tc.GateCreate(svc.proc.ProcCt, kernel.GateSpec{
		Label:     gateLbl,
		Clearance: label.New(label.L2),
		Descrip:   "auth setup gate: " + u.Name,
		Entry: func(call *kernel.GateCallCtx) []byte {
			s.Log.Append("setup attempt for " + u.Name)
			pir, sessCt, ok := decodeSetupArgs(call.Args)
			if !ok {
				return []byte("ERR bad setup arguments")
			}
			x, err := call.TC.CategoryCreate()
			if err != nil {
				return []byte("ERR " + err.Error())
			}
			sess := &sessionState{x: x}
			// Retry-count segment: {pir3, uw0, 1} — written under the user's
			// integrity category, readable only under the password taint.
			retryLbl := label.New(label.L1, label.P(pir, label.L3), label.P(u.Uw, label.L0))
			retrySeg, err := call.TC.SegmentCreate(sessCt, retryLbl, "retry count", 8)
			if err != nil {
				return []byte("ERR " + err.Error())
			}
			sess.retrySeg = kernel.CEnt{Container: sessCt, Object: retrySeg}
			// Check gate: owns uw (to update the retry count) and x (to keep
			// or withhold the session proof); clearance admits pir-tainted
			// callers.
			checkID, err := call.TC.GateCreate(sessCt, kernel.GateSpec{
				Label:     label.New(label.L1, label.P(u.Uw, label.Star), label.P(x, label.Star)),
				Clearance: label.New(label.L2, label.P(pir, label.L3)),
				Descrip:   "auth check gate: " + u.Name,
				Entry:     svc.checkEntry(s, sess),
			})
			if err != nil {
				return []byte("ERR " + err.Error())
			}
			sess.checkGate = kernel.CEnt{Container: sessCt, Object: checkID}
			// Grant gate: clearance {x0, 2} so only x owners may call; grants
			// ur/uw and logs the success (which the pir-tainted check gate
			// could not do itself).
			grantID, err := call.TC.GateCreate(sessCt, kernel.GateSpec{
				Label:     label.New(label.L1, label.P(u.Ur, label.Star), label.P(u.Uw, label.Star)),
				Clearance: label.New(label.L2, label.P(x, label.L0)),
				Descrip:   "auth grant gate: " + u.Name,
				Entry: func(call *kernel.GateCallCtx) []byte {
					s.Log.Append("authentication success for " + u.Name)
					return []byte("GRANTED")
				},
			})
			if err != nil {
				return []byte("ERR " + err.Error())
			}
			sess.grantGate = kernel.CEnt{Container: sessCt, Object: grantID}
			return encodeSession(sess)
		},
	})
	if err != nil {
		return err
	}
	svc.setup = kernel.CEnt{Container: svc.proc.ProcCt, Object: gid}
	return nil
}

// checkEntry returns the check gate's entry function (step 3): it enforces
// the retry bound, verifies the password, and decides whether the calling
// thread may keep ownership of the session category x.  On failure it
// strips x (and its own uw) from the thread before returning, so a failed
// login leaves the client with nothing.
func (svc *userAuthService) checkEntry(s *Service, sess *sessionState) kernel.GateEntry {
	return func(call *kernel.GateCallCtx) []byte {
		verdict := func(ok bool, result string) []byte {
			cur, err := call.TC.SelfLabel()
			if err != nil {
				return []byte("ERR " + err.Error())
			}
			next := cur.With(svc.user.Uw, label.L1)
			if !ok {
				next = next.With(sess.x, label.L1)
			}
			_ = call.TC.SelfSetLabel(next)
			return []byte(result)
		}
		cnt, err := call.TC.SegmentRead(sess.retrySeg, 0, 8)
		if err != nil {
			return verdict(false, "ERR retry segment: "+err.Error())
		}
		n := binary.LittleEndian.Uint64(cnt)
		if n >= MaxRetries {
			return verdict(false, "RETRY-LIMIT")
		}
		var buf [8]byte
		binary.LittleEndian.PutUint64(buf[:], n+1)
		if err := call.TC.SegmentWrite(sess.retrySeg, 0, buf[:]); err != nil {
			return verdict(false, "ERR retry update: "+err.Error())
		}
		h := hashPassword(svc.user.Name, string(call.Args))
		if subtle.ConstantTimeCompare(h[:], svc.passHash[:]) == 1 {
			return verdict(true, "OK")
		}
		return verdict(false, "BAD")
	}
}

// The session reply and the setup arguments use a fixed binary layout
// instead of formatted decimal: the old fmt round-trip was re-parsed on every
// login and showed up in the cold-path profile.

// sessionMagic distinguishes a binary session reply from an "ERR ..." text
// reply on the shared gate result channel.
const sessionMagic = 0x01

const sessionWireLen = 1 + 7*8

func encodeSession(sess *sessionState) []byte {
	out := make([]byte, sessionWireLen)
	out[0] = sessionMagic
	for i, v := range [...]uint64{
		uint64(sess.x),
		uint64(sess.checkGate.Container), uint64(sess.checkGate.Object),
		uint64(sess.grantGate.Container), uint64(sess.grantGate.Object),
		uint64(sess.retrySeg.Container), uint64(sess.retrySeg.Object),
	} {
		binary.LittleEndian.PutUint64(out[1+8*i:], v)
	}
	return out
}

func decodeSession(b []byte) (*sessionState, error) {
	if len(b) != sessionWireLen || b[0] != sessionMagic {
		return nil, errors.New("auth: bad session reply " + string(b))
	}
	var v [7]uint64
	for i := range v {
		v[i] = binary.LittleEndian.Uint64(b[1+8*i:])
	}
	return &sessionState{
		x:         label.Category(v[0]),
		checkGate: kernel.CEnt{Container: kernel.ID(v[1]), Object: kernel.ID(v[2])},
		grantGate: kernel.CEnt{Container: kernel.ID(v[3]), Object: kernel.ID(v[4])},
		retrySeg:  kernel.CEnt{Container: kernel.ID(v[5]), Object: kernel.ID(v[6])},
	}, nil
}

// The setup gate's arguments: the password category pir and the client's
// session container.
func encodeSetupArgs(pir label.Category, sessCt kernel.ID) []byte {
	var b [16]byte
	binary.LittleEndian.PutUint64(b[:], uint64(pir))
	binary.LittleEndian.PutUint64(b[8:], uint64(sessCt))
	return b[:]
}

func decodeSetupArgs(b []byte) (pir label.Category, sessCt kernel.ID, ok bool) {
	if len(b) != 16 {
		return 0, kernel.NilID, false
	}
	return label.Category(binary.LittleEndian.Uint64(b)), kernel.ID(binary.LittleEndian.Uint64(b[8:])), true
}

// Login authenticates client as username with the given password.  On
// success the client's thread gains ownership of the user's ur and uw (and
// clearance ur3/uw3) and the process is associated with the account; on
// failure it gains nothing.  Either way that is the whole difference: the
// password category pir, the session category x and the session container
// are gone from the client's label, clearance and process container when
// Login returns.  (x is not kept: it proves to the grant gate that the check
// passed, and has no use once ur and uw are held.)
func (s *Service) Login(client *unixlib.Process, username, password string) error {
	s.mu.Lock()
	svc := s.users[username]
	s.mu.Unlock()
	if svc == nil {
		return ErrNoSuchUser
	}
	tc, u := client.TC, svc.user
	lbl0, err := tc.SelfLabel()
	if err != nil {
		return err
	}
	clr0, err := tc.SelfClearance()
	if err != nil {
		return err
	}
	// The session container, labeled like the process container it sits in.
	// The default quota is ample for one 8-byte segment and two gates.
	sessCt, err := tc.ContainerCreate(client.ProcCt, label.New(label.L1, label.P(client.Pw, label.L0)), "auth session", 0, 0)
	if err != nil {
		return err
	}
	granted := false
	defer func() {
		_ = tc.Unref(client.ProcCt, sessCt)
		lbl, clr := lbl0, clr0
		if granted {
			// Owning ur/uw, the client may raise its clearance in them so it
			// can allocate objects (file descriptors, files) at the user's
			// labels.
			lbl = lbl.With(u.Ur, label.Star).With(u.Uw, label.Star)
			clr = clr.With(u.Ur, label.L3).With(u.Uw, label.L3)
		}
		_ = tc.SelfSetLabel(lbl)
		_ = tc.SelfSetClearance(clr)
	}()
	// pir protects the password during the check.
	pir, err := tc.CategoryCreate()
	if err != nil {
		return err
	}
	lbl := lbl0.With(pir, label.Star)
	clr := clr0.With(pir, label.L3)

	// Step 2: invoke the setup gate, which creates the session objects in
	// sessCt with the user categories the gate itself provides.
	out, err := tc.GateEnter(svc.setup, kernel.GateRequest{
		Label:     lbl.With(u.Ur, label.Star).With(u.Uw, label.Star),
		Clearance: clr,
		Verify:    lbl,
		Args:      encodeSetupArgs(pir, sessCt),
	})
	if err != nil {
		return err
	}
	if strings.HasPrefix(string(out), "ERR") {
		return errors.New("auth: setup failed: " + string(out))
	}
	sess, err := decodeSession(out)
	if err != nil {
		return err
	}
	// Drop the structurally acquired privileges: nothing has been proven yet.
	// What stays is x, which the setup gate allocated on this thread.
	lbl = lbl.With(sess.x, label.Star)
	clr = clr.With(sess.x, label.L3)
	if err := tc.SelfSetLabel(lbl); err != nil {
		return err
	}

	// Step 3: the password check.  The check gate's label carries uw⋆ and
	// x⋆; its entry decides whether the thread keeps x.
	checkOut, err := tc.GateEnter(sess.checkGate, kernel.GateRequest{
		Label:     lbl.With(u.Uw, label.Star),
		Clearance: clr,
		Verify:    lbl,
		Args:      []byte(password),
	})
	if err != nil {
		return err
	}
	switch string(checkOut) {
	case "OK":
	case "RETRY-LIMIT":
		s.Log.Append("retry limit hit for " + username)
		return ErrTooManyRetries
	default:
		s.Log.Append("authentication failure for " + username)
		return ErrBadPassword
	}

	// Step 4: the grant gate ({x0, 2} clearance: only x owners) hands over
	// ur and uw durably and logs the success.
	grantOut, err := tc.GateEnter(sess.grantGate, kernel.GateRequest{
		Label:     lbl.With(u.Ur, label.Star).With(u.Uw, label.Star),
		Clearance: clr,
		Verify:    lbl,
	})
	if err != nil {
		return err
	}
	if string(grantOut) != "GRANTED" {
		return ErrBadPassword
	}
	granted = true
	client.User = u
	return nil
}

// Verify checks username/password against the stored verifier without
// driving the gate protocol: the session-hit fast path for services (webd's
// worker-session cache) that already hold an authenticated worker for the
// user and only need to re-check the presented credential.  It stands in
// for a session token or SSL session resumption, so it deliberately skips
// the retry-count segment — the full Login flow with its per-session retry
// bound still guards every privilege grant, because Verify never grants
// anything: it only tells the caller whether reusing an existing
// already-privileged session is justified.
func (s *Service) Verify(username, password string) error {
	s.mu.Lock()
	svc := s.users[username]
	s.mu.Unlock()
	if svc == nil {
		return ErrNoSuchUser
	}
	h := hashPassword(username, password)
	if subtle.ConstantTimeCompare(h[:], svc.passHash[:]) != 1 {
		return ErrBadPassword
	}
	return nil
}

// PasswordHashHex exposes the stored verifier, standing in for what an
// attacker who fully compromised the user's authentication daemon could
// read.
func (s *Service) PasswordHashHex(username string) (string, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	svc, ok := s.users[username]
	if !ok {
		return "", ErrNoSuchUser
	}
	return hex.EncodeToString(svc.passHash[:]), nil
}
