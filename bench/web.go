package main

import (
	"bytes"
	"fmt"
	"math/rand"
	"strconv"
	"sync"

	"histar/internal/auth"
	"histar/internal/kernel"
	"histar/internal/netsim"
	"histar/internal/unixlib"
	"histar/internal/vclock"
	"histar/internal/webd"
)

// webShape is what distinguishes the two web workloads.  Both drive the same
// server over the same simulated Ethernet; they differ in whether a request
// finds its user's session cached.
type webShape struct {
	users       int
	maxSessions int     // 0 = webd's default (128)
	goldenBytes int     // 0 = no sandbox
	setFrac     float64 // share of /profile/set requests
	logoutEvery int     // 0 = never
}

var (
	// web_warm: every user stays cached, so a request is lane → ring batch →
	// gate enter → worker → chained reply read and nothing else.
	webWarmShape = webShape{users: 64, setFrac: 0.10}
	// web_churn: 8× more users than sessions, so almost every request evicts
	// a session and runs a cold login with a golden-image clone.
	webChurnShape = webShape{users: 512, maxSessions: 64, goldenBytes: 1 << 20, setFrac: 0.50, logoutEvery: 50}
)

// goesCold reports whether any request of this shape can find its session
// missing.  Where none can, the traced trial skips the per-request look at the
// server's cold-login counter, which takes the session cache's lock.
func (s webShape) goesCold() bool {
	maxSessions := s.maxSessions
	if maxSessions == 0 {
		maxSessions = 128 // webd's default
	}
	return s.users > maxSessions || s.logoutEvery > 0
}

const httpOK = "HTTP/1.0 200 OK\r\n\r\n"

func webUser(i int) (name, password string) {
	return "u" + strconv.Itoa(i), "pw-" + strconv.Itoa(i)
}

// webValue is the profile value user idx writes as its seq'th write.  The
// width is fixed so an overwrite always replaces the whole previous value,
// and the prefix names the user so a cross-user leak is recognizable.
func webValue(idx, seq int) string {
	return fmt.Sprintf("v%d-%08d", idx, seq)
}

// webClient is one closed-loop client and its model of its own users.
type webClient struct {
	*client
	id    byte
	owned []int       // user indexes with idx % clients == id
	last  map[int]int // user index -> seq of the last value written
	reply []byte
}

// setupWeb boots the system, registers the users, bakes the golden image,
// starts the server behind the simulated Ethernet and prewarms it; the
// returned function runs the measured window.
func setupWeb(t *trial, shape webShape) (func() error, error) {
	sys, err := unixlib.Boot(unixlib.BootOptions{KernelConfig: kernel.Config{Seed: kernelSeed}})
	if err != nil {
		return nil, err
	}
	authSvc := auth.New(sys)
	for i := 0; i < shape.users; i++ {
		name, pw := webUser(i)
		if _, err := authSvc.Register(name, pw); err != nil {
			return nil, fmt.Errorf("register %s: %w", name, err)
		}
	}
	r := &rig{sys: sys, auth: authSvc}
	cfg := webd.Config{MaxSessions: shape.maxSessions}
	if shape.goldenBytes > 0 {
		tmpl, err := sys.AddUser("goldentmpl")
		if err != nil {
			return nil, err
		}
		if r.golden, err = sys.BakeGoldenData("webd-sandbox", tmpl, shape.goldenBytes); err != nil {
			return nil, err
		}
		cfg.Golden = r.golden
	}
	srv := webd.NewWithConfig(sys, authSvc, webd.ProfileApp, cfg)
	r.srv = srv
	t.rig = r

	nClients := len(t.clients)
	clients := make([]*webClient, nClients)
	for g := range clients {
		clients[g] = &webClient{client: t.clients[g], id: byte(g), last: map[int]int{}}
	}
	for i := 0; i < shape.users; i++ {
		c := clients[i%nClients]
		c.owned = append(c.owned, i)
	}

	// The wire.  Clients sit on side A, the benchmark's own server endpoint
	// on side B.  The link delivers synchronously in the sender's goroutine,
	// so the reply lands in the client's slot before SendAtoB returns, and
	// the endpoint can record its span in the sending client's tracer.  A
	// frame is [client id byte][payload].
	r.netClock = &vclock.Clock{}
	link := netsim.NewLink(netsim.PaperEthernet(), r.netClock)
	r.link = link
	link.Attach(
		netsim.EndpointFunc(func(frame []byte) {
			clients[frame[0]].reply = frame[1:]
		}),
		netsim.EndpointFunc(func(frame []byte) {
			c := clients[frame[0]]
			resp := serveFrame(srv, c, frame[1:], shape.goesCold())
			link.SendBtoA(append([]byte{frame[0]}, resp...))
		}),
	)

	// Prewarm: every user writes its first value, so every profile exists
	// and (on web_warm) every session is cached before the first timed op.
	for i := 0; i < shape.users; i++ {
		name, pw := webUser(i)
		if _, err := srv.Serve(webd.Request{User: name, Password: pw, Path: "/profile/set/" + webValue(i, 0)}); err != nil {
			return nil, fmt.Errorf("prewarm %s: %w", name, err)
		}
	}

	return func() error {
		perClient := t.spec.N / nClients
		t.beginWindow(perClient * nClients)
		var wg sync.WaitGroup
		for _, c := range clients {
			wg.Add(1)
			go func(c *webClient) {
				defer wg.Done()
				c.run(srv, link, shape, perClient, t.spec.Seed)
			}(c)
		}
		wg.Wait()
		t.endWindow()
		return nil
	}, nil
}

// serveFrame is the server side of the wire: parse, Serve, reply.  On a
// traced trial the Serve call is a span, renamed webd.serve.cold when the
// server ran a cold login while it was open.
func serveFrame(srv *webd.Server, c *webClient, payload []byte, goesCold bool) []byte {
	parts := bytes.SplitN(payload, []byte{' '}, 3)
	if len(parts) != 3 {
		return []byte("ERR malformed request")
	}
	req := webd.Request{User: string(parts[0]), Password: string(parts[1]), Path: string(parts[2])}
	goesCold = goesCold && c.tr != nil
	var cold0 uint64
	if goesCold {
		cold0 = srv.SessionStats().ColdLogins
	}
	s := c.tr.begin("webd.serve")
	resp, err := srv.Serve(req)
	c.tr.end(s)
	if goesCold && srv.SessionStats().ColdLogins != cold0 {
		c.tr.spans[s].Name = internName("webd.serve.cold")
	}
	if err != nil {
		return []byte("ERR " + err.Error())
	}
	return []byte(resp)
}

// run issues n requests.  The seed picks the user and the request kind; the
// client checks every response byte-for-byte against the last value it wrote.
func (c *webClient) run(srv *webd.Server, link *netsim.Link, shape webShape, n int, seed int64) {
	rng := rand.New(rand.NewSource(seed*1000003 + int64(c.id)))
	for i := 0; i < n; i++ {
		idx := c.owned[rng.Intn(len(c.owned))]
		set := rng.Float64() < shape.setFrac
		name, pw := webUser(idx)
		if shape.logoutEvery > 0 && i%shape.logoutEvery == shape.logoutEvery-1 {
			srv.Logout(name)
		}
		path, want := "/profile", httpOK+webValue(idx, c.last[idx])
		if set {
			c.last[idx]++
			path, want = "/profile/set/"+webValue(idx, c.last[idx]), httpOK+"stored"
		}
		frame := append([]byte{c.id}, name+" "+pw+" "+path...)
		c.op(func() error {
			c.reply = nil
			_ = c.call("netsim.send", func() error { link.SendAtoB(frame); return nil }) // a send cannot fail; a lost reply fails the check
			if err := c.check(path, c.reply, []byte(want)); err != nil {
				if leaksOtherUser(c.reply, idx) {
					return fmt.Errorf("CROSS-USER LEAK to u%d: %w", idx, err)
				}
				return err
			}
			return nil
		})
	}
}

// leaksOtherUser reports whether a response body carries another user's
// value prefix.
func leaksOtherUser(resp []byte, idx int) bool {
	body, ok := bytes.CutPrefix(resp, []byte(httpOK+"v"))
	if !ok {
		return false
	}
	dash := bytes.IndexByte(body, '-')
	return dash > 0 && string(body[:dash]) != strconv.Itoa(idx)
}
