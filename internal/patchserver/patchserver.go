// Package patchserver implements KShot's remote Patch Server and its
// client protocol (§IV, §V-A): the target uploads its OS information
// (version, build configuration, enclave measurement); the server
// verifies the enclave identity (the MITM mitigation of §V-C),
// establishes an encrypted channel to it, rebuilds pre- and post-patch
// kernels with the target's exact configuration, extracts the
// function-level binary diff, and ships it encrypted; finally, the
// target's status reports let the server detect stalled patch
// deployments (the DoS-detection handshake of §V-D).
//
// The server is built to serve fleets, not single targets: built
// artifacts are cached in a bounded LRU keyed by (version, build
// knobs, CVE) with single-flight deduplication, so N identical targets
// requesting the same CVE trigger exactly one double kernel build
// while per-session encryption stays per-client; connections carry
// idle deadlines and an optional max-concurrency gate with accept
// backpressure; and Drain offers a graceful stop (quit accepting,
// finish in-flight responses, then close). A client makes one
// context-bounded connect attempt and keeps that connection until
// Close; a transport failure surfaces to its caller.
//
// The wire protocol is length-prefixed binary frames over TCP (stdlib
// net); see frame.go.
package patchserver

import (
	"bufio"
	"bytes"
	"context"
	"crypto/rand"
	"errors"
	"fmt"
	"io"
	"net"
	"sync"
	"sync/atomic"
	"time"

	"kshot/internal/faultinject"
	"kshot/internal/kcrypto"
	"kshot/internal/kernel"
	"kshot/internal/obs"
	"kshot/internal/options"
	"kshot/internal/patch"
	"kshot/internal/sgx"
	"kshot/internal/sgxprep"
	"kshot/internal/wire"
)

// OSInfo is what the target machine reports about itself — enough for
// the server to rebuild a bit-identical kernel binary.
type OSInfo struct {
	Version string
	Ftrace  bool
	Inline  bool
}

// Request/response message kinds.
const (
	kindHello  = "hello"
	kindPatch  = "patch"
	kindStatus = "status"
)

type request struct {
	Kind string

	// hello
	Info        OSInfo
	Measurement sgx.Measurement
	// AttKey is the status-attestation HMAC key the target provisioned
	// into its SMM handler, so the server can authenticate deployment
	// confirmations. (The hello channel is assumed transport-protected,
	// as the paper assumes encrypted server communication.)
	AttKey []byte

	// patch
	CVE string

	// status
	Code   uint32
	Seq    uint64
	Digest []byte
	MAC    []byte
}

type response struct {
	Err string

	// hello
	ServerKey []byte

	// patch: Blob is the sealed patch the client reads. The server
	// sets plain and crypt instead: the cached plaintext artifact and
	// the session's cipher, which appendResponse seals it with straight
	// into the frame.
	Blob  []byte
	plain []byte
	crypt *kcrypto.Session
}

// TreeProvider returns the full kernel source tree for a version —
// the distro vendor's copy, which must match what the target runs.
type TreeProvider func(version string) (*kernel.SourceTree, error)

// Server tuning defaults.
const (
	// DefaultListenAddr is the listen address New uses when no
	// WithListenAddr option is given: loopback, ephemeral port.
	DefaultListenAddr = "127.0.0.1:0"

	// DefaultIdleTimeout bounds how long a connection may sit between
	// requests (and how long one response write may take) before the
	// server reclaims it. A connected-but-silent client therefore costs
	// a goroutine for at most this long.
	DefaultIdleTimeout = 2 * time.Minute

	// DefaultCacheCapacity is the build-cache entry bound: distinct
	// (version, ftrace, inline, CVE) artifacts retained at once.
	DefaultCacheCapacity = 64
)

// serverConfig collects the ServerOption-tunable knobs.
type serverConfig struct {
	listenAddr    string
	trees         TreeProvider
	idleTimeout   time.Duration
	maxConns      int
	acceptWait    time.Duration
	cacheCapacity int
	obs           *obs.Hooks
}

// ServerOption tunes a Server. Every With* validates its argument
// eagerly; New reports the first rejected option as a typed
// *options.Error matching options.ErrInvalid.
type ServerOption func(*serverConfig) error

func serverOptErr(option, format string, a ...any) error {
	return options.Errorf("patchserver.New", option, format, a...)
}

// WithListenAddr sets the TCP listen address ("host:0" picks an
// ephemeral port; DefaultListenAddr when the option is absent).
// Setting two different addresses is a conflict.
func WithListenAddr(addr string) ServerOption {
	return func(c *serverConfig) error {
		if addr == "" {
			return serverOptErr("WithListenAddr", "address must not be empty")
		}
		if c.listenAddr != "" && c.listenAddr != addr {
			return serverOptErr("WithListenAddr", "conflicting addresses %q and %q", c.listenAddr, addr)
		}
		c.listenAddr = addr
		return nil
	}
}

// WithTreeProvider sets the kernel source provider the server builds
// patches from. New requires exactly one provider.
func WithTreeProvider(tp TreeProvider) ServerOption {
	return func(c *serverConfig) error {
		if tp == nil {
			return serverOptErr("WithTreeProvider", "provider must not be nil")
		}
		if c.trees != nil {
			return serverOptErr("WithTreeProvider", "provider set twice")
		}
		c.trees = tp
		return nil
	}
}

// WithIdleTimeout sets the per-connection idle deadline (zero or
// negative disables it — connections may then pin their handler
// goroutine forever; see DefaultIdleTimeout).
func WithIdleTimeout(d time.Duration) ServerOption {
	return func(c *serverConfig) error {
		c.idleTimeout = d
		return nil
	}
}

// WithMaxConns gates the server at n concurrently served connections.
// When the gate is full the accept loop stops accepting (backpressure
// through the listen backlog) until a slot frees, or — if an accept
// wait is configured — sheds the next connection with a counted
// refusal once the wait expires. n == 0 means unlimited.
func WithMaxConns(n int) ServerOption {
	return func(c *serverConfig) error {
		if n < 0 {
			return serverOptErr("WithMaxConns", "must be >= 0, got %d", n)
		}
		c.maxConns = n
		return nil
	}
}

// WithAcceptWait bounds how long a full connection gate holds the
// accept loop before the server actively refuses the next connection
// (a "server at capacity" response). Zero — the default — waits
// indefinitely: pure backpressure, no refusals.
func WithAcceptWait(d time.Duration) ServerOption {
	return func(c *serverConfig) error {
		if d < 0 {
			return serverOptErr("WithAcceptWait", "must be >= 0, got %v", d)
		}
		c.acceptWait = d
		return nil
	}
}

// WithCacheCapacity bounds the build cache to n entries (0 uses
// DefaultCacheCapacity, negative disables retention entirely —
// single-flight deduplication of concurrent identical builds remains).
func WithCacheCapacity(n int) ServerOption {
	return func(c *serverConfig) error {
		c.cacheCapacity = n
		return nil
	}
}

// WithServerObserver installs the instrumentation handle at
// construction (see Server.SetObserver).
func WithServerObserver(ob *obs.Hooks) ServerOption {
	return func(c *serverConfig) error {
		c.obs = ob
		return nil
	}
}

// Server is the remote patch server.
type Server struct {
	ln    net.Listener
	trees TreeProvider

	idleTimeout time.Duration
	acceptWait  time.Duration
	slots       chan struct{} // nil = unlimited
	done        chan struct{} // closed when accepting stops (Drain or Close)
	hardStop    chan struct{} // closed by Close only: abort live sessions
	stopOnce    sync.Once

	cache  *buildCache
	builds atomic.Uint64 // completed double kernel builds

	live    atomic.Int64
	refused atomic.Int64

	mu       sync.Mutex
	patches  map[string]kernel.SourcePatch
	prebuilt map[string][]byte // encoded binary patches served without a build
	// statuses holds one record per attestation key, so it grows with
	// the targets that report, not with their SMIs.
	statuses map[string]*TargetStatus
	conns    map[net.Conn]struct{}
	closed   bool
	wg       sync.WaitGroup

	// keyRoot derives the server→enclave channel key of an attested
	// target from its identity (version, build knobs, measurement and
	// attestation key), so the key a hello provisions to a target's
	// enclave needs no per-target state on the server. A target holds one
	// connection, so that key reaches exactly one enclave.
	keyRoot []byte

	// versions remembers the kernel versions the tree provider has
	// served, so a hello checks a known version without rebuilding its
	// source tree.
	versions sync.Map

	obs atomic.Pointer[obs.Hooks]
}

// StatusReport is one target status received by the server.
type StatusReport struct {
	Code   uint32
	Seq    uint64
	Digest []byte
	At     time.Time
}

// set overwrites r with a received report, reusing r's digest buffer.
func (r *StatusReport) set(code uint32, seq uint64, digest []byte, at time.Time) {
	r.Code, r.Seq, r.At = code, seq, at
	r.Digest = append(r.Digest[:0], digest...)
}

// TargetStatus is the server's status record for one attestation key.
type TargetStatus struct {
	// Authentic is the newest report whose HMAC verified under the
	// attestation key (Seq 0: none yet). SMM numbers its status
	// records monotonically, so an authentic report whose Seq does not
	// exceed this one's is a replay or a retried send and changes
	// nothing.
	Authentic StatusReport

	// Forged is the newest report whose HMAC did not verify, and
	// Forgeries counts them: a forged confirmation (a kernel attacker
	// scribbling on the mem_RW mailbox to mask a suppressed
	// deployment) is evidence, whatever its Seq.
	Forged    StatusReport
	Forgeries int
}

// New starts a server configured entirely through functional options.
// WithTreeProvider is required; the listen address defaults to
// DefaultListenAddr. Close the server when done.
func New(opts ...ServerOption) (*Server, error) {
	cfg := serverConfig{idleTimeout: DefaultIdleTimeout, cacheCapacity: DefaultCacheCapacity}
	for _, o := range opts {
		if err := o(&cfg); err != nil {
			return nil, err
		}
	}
	if cfg.trees == nil {
		return nil, serverOptErr("WithTreeProvider", "required: no tree provider configured")
	}
	if cfg.listenAddr == "" {
		cfg.listenAddr = DefaultListenAddr
	}
	if cfg.cacheCapacity == 0 {
		cfg.cacheCapacity = DefaultCacheCapacity
	}
	return newServer(cfg)
}

func newServer(cfg serverConfig) (*Server, error) {
	keyRoot := make([]byte, 32)
	if _, err := io.ReadFull(rand.Reader, keyRoot); err != nil {
		return nil, fmt.Errorf("patchserver: key root: %w", err)
	}
	ln, err := net.Listen("tcp", cfg.listenAddr)
	if err != nil {
		return nil, fmt.Errorf("patchserver: %w", err)
	}
	s := &Server{
		ln: ln, trees: cfg.trees,
		idleTimeout: cfg.idleTimeout,
		acceptWait:  cfg.acceptWait,
		done:        make(chan struct{}),
		hardStop:    make(chan struct{}),
		cache:       newBuildCache(cfg.cacheCapacity),
		patches:     make(map[string]kernel.SourcePatch),
		prebuilt:    make(map[string][]byte),
		statuses:    make(map[string]*TargetStatus),
		conns:       make(map[net.Conn]struct{}),
		keyRoot:     keyRoot,
	}
	s.obs.Store(cfg.obs)
	if cfg.maxConns > 0 {
		s.slots = make(chan struct{}, cfg.maxConns)
	}
	s.wg.Add(1)
	go s.acceptLoop()
	return s, nil
}

// Addr returns the server's listen address.
func (s *Server) Addr() string { return s.ln.Addr().String() }

// SetObserver installs (or, with nil, removes) the instrumentation
// handle counting cache traffic, builds, and connection churn; its
// fault set is consulted on the cache and accept paths.
func (s *Server) SetObserver(ob *obs.Hooks) { s.obs.Store(ob) }

// RegisterPatch adds a source patch (a CVE fix) to the server's
// catalogue, invalidating any cached builds of an earlier revision.
func (s *Server) RegisterPatch(p kernel.SourcePatch) {
	s.mu.Lock()
	s.patches[p.ID] = p
	delete(s.prebuilt, p.ID)
	s.mu.Unlock()
	s.cache.invalidateCVE(p.ID)
}

// RegisterBinaryPatch adds an already-built binary patch to the
// catalogue under bp.ID, replacing any source patch of that ID. It is
// encoded once here; each request for it skips the kernel builds but
// is still encrypted per session, exactly like a built patch. The size
// sweep of Tables II/III serves its synthetic payloads this way.
func (s *Server) RegisterBinaryPatch(bp *patch.BinaryPatch) error {
	if bp == nil || bp.ID == "" {
		return errors.New("patchserver: binary patch needs an ID")
	}
	plain := patch.Encode(bp)
	s.mu.Lock()
	s.prebuilt[bp.ID] = plain
	delete(s.patches, bp.ID)
	s.mu.Unlock()
	s.cache.invalidateCVE(bp.ID)
	return nil
}

// Statuses returns a copy of the status record of every attestation
// key that has reported from an attested session, keyed by that key.
func (s *Server) Statuses() map[string]TargetStatus {
	s.mu.Lock()
	defer s.mu.Unlock()
	out := make(map[string]TargetStatus, len(s.statuses))
	for key, st := range s.statuses {
		c := *st
		c.Authentic.Digest = bytes.Clone(st.Authentic.Digest)
		c.Forged.Digest = bytes.Clone(st.Forged.Digest)
		out[key] = c
	}
	return out
}

// Builds reports how many double kernel builds (pre + post patch) the
// server has performed — the fleet conformance witness: with caching
// it stays at one per distinct (configuration, CVE) pair no matter how
// many targets request it.
func (s *Server) Builds() uint64 { return s.builds.Load() }

// Live reports the number of connections currently being served.
func (s *Server) Live() int { return int(s.live.Load()) }

// Refused reports how many connections the full gate actively shed.
func (s *Server) Refused() int { return int(s.refused.Load()) }

// CachedArtifacts reports how many built artifacts the cache retains.
func (s *Server) CachedArtifacts() int { return s.cache.len() }

// FlushCache empties the build cache (benchmarks use this to measure
// cold-cache behavior; operators can use it to force rebuilds).
func (s *Server) FlushCache() { s.cache.flush() }

// stop quits accepting: closes the done signal and the listener.
func (s *Server) stop() {
	s.stopOnce.Do(func() {
		close(s.done)
		_ = s.ln.Close()
	})
}

// Drain gracefully stops the server: no new connections are accepted,
// established sessions keep being served until their clients
// disconnect (silent peers are bounded by the idle deadline), and
// Drain returns once every connection has finished or ctx expires.
// Call Close afterwards to force-abort whatever remains.
func (s *Server) Drain(ctx context.Context) error {
	s.stop()
	done := make(chan struct{})
	go func() {
		s.wg.Wait()
		close(done)
	}()
	select {
	case <-done:
		return nil
	case <-ctx.Done():
		return ctx.Err()
	}
}

// Close stops the server and waits for connection handlers. In-flight
// responses are still written (under the write deadline); reads parked
// waiting for a next request are aborted immediately.
func (s *Server) Close() {
	s.mu.Lock()
	if s.closed {
		s.mu.Unlock()
		return
	}
	s.closed = true
	conns := make([]net.Conn, 0, len(s.conns))
	for c := range s.conns {
		conns = append(conns, c)
	}
	s.mu.Unlock()
	s.stop()
	close(s.hardStop)
	for _, c := range conns {
		_ = c.SetReadDeadline(time.Now())
	}
	s.wg.Wait()
}

func (s *Server) acceptLoop() {
	defer s.wg.Done()
	for {
		conn, err := s.ln.Accept()
		if err != nil {
			return // listener closed
		}
		if f, ok := s.obs.Load().Fault(faultinject.AcceptStall); ok {
			// Injected accept-path stall: the whole accept loop wedges,
			// modeling a slow or contended frontend.
			t := time.NewTimer(f.Delay)
			select {
			case <-t.C:
			case <-s.done:
				t.Stop()
			}
		}
		s.admit(conn)
	}
}

// admit passes an accepted connection through the concurrency gate and
// starts its handler. When the gate is full it blocks the accept loop
// (backpressure: later connections queue in the listen backlog) until
// a slot frees or, past the configured accept wait, refuses the
// connection outright.
func (s *Server) admit(conn net.Conn) {
	if s.slots != nil {
		select {
		case s.slots <- struct{}{}:
		default:
			if s.acceptWait > 0 {
				t := time.NewTimer(s.acceptWait)
				select {
				case s.slots <- struct{}{}:
					t.Stop()
				case <-t.C:
					s.refuse(conn)
					return
				case <-s.done:
					t.Stop()
					conn.Close()
					return
				}
			} else {
				select {
				case s.slots <- struct{}{}:
				case <-s.done:
					conn.Close()
					return
				}
			}
		}
	}
	s.mu.Lock()
	if s.closed {
		s.mu.Unlock()
		if s.slots != nil {
			<-s.slots
		}
		conn.Close()
		return
	}
	s.conns[conn] = struct{}{}
	s.wg.Add(1)
	s.mu.Unlock()
	s.live.Add(1)
	ob := s.obs.Load()
	ob.Count(obs.CtrConnAccepted, 1)
	ob.Count(obs.CtrConnLive, 1)
	go s.serveConn(conn)
}

// refuse sheds one connection at the full gate: it answers the peer's
// first read with a capacity error and closes.
func (s *Server) refuse(conn net.Conn) {
	s.refused.Add(1)
	s.obs.Load().Count(obs.CtrConnRefused, 1)
	_ = conn.SetWriteDeadline(time.Now().Add(time.Second))
	_, _ = conn.Write(appendResponse(nil, &response{Err: "server at capacity"}))
	conn.Close()
}

// session is the per-connection state: the registered target.
type session struct {
	info      OSInfo
	serverKey []byte
	crypt     *kcrypto.Session
	attKey    []byte
}

func (s *Server) serveConn(conn net.Conn) {
	rd := connReaders.Get().(*bufio.Reader)
	rd.Reset(conn)
	out := outBufs.Get().(*[]byte)
	// Pending responses, written when the next request is not already
	// buffered (see frameBuffered): a pipelined burst is answered with
	// one write, and nothing is left pending across a read that could
	// block or fail.
	pending := (*out)[:0]
	flush := func() error {
		if len(pending) == 0 {
			return nil
		}
		if s.idleTimeout > 0 {
			_ = conn.SetWriteDeadline(time.Now().Add(s.idleTimeout))
		}
		_, err := conn.Write(pending)
		pending = pending[:0]
		return err
	}
	defer func() {
		_ = flush() // whatever ended the session, answered requests get their responses
		*out = pending
		outBufs.Put(out)
		rd.Reset(nil) // drop the connection and any bytes of a cut-off frame
		connReaders.Put(rd)
		conn.Close()
		s.mu.Lock()
		delete(s.conns, conn)
		s.mu.Unlock()
		if s.slots != nil {
			<-s.slots
		}
		s.live.Add(-1)
		s.obs.Load().Count(obs.CtrConnLive, -1)
		s.wg.Done()
	}()
	var (
		sess  *session
		reqs  []request  // the current burst, reused across bursts
		resps []response // its responses, in request order
	)
	for {
		// The idle deadline is armed before the shutdown check: if Close
		// runs between the two, its SetReadDeadline(now) lands after ours
		// and the read below fails immediately instead of idling. Only
		// Close aborts live sessions — a draining server keeps serving
		// established connections until their clients leave.
		if s.idleTimeout > 0 {
			_ = conn.SetReadDeadline(time.Now().Add(s.idleTimeout))
		}
		select {
		case <-s.hardStop:
			return
		default:
		}
		var err error
		reqs, err = readBurst(rd, reqs[:0])
		resps = s.serveBurst(&sess, reqs, resps[:0])
		for i := range resps {
			pending = appendResponse(pending, &resps[i])
		}
		// Drop the burst's references to request frames and blobs.
		clear(reqs)
		clear(resps)
		if err != nil {
			return // EOF, timeout, oversized or malformed frame, or broken peer
		}
		if len(pending) > flushThreshold || !frameBuffered(rd) {
			if err := flush(); err != nil {
				return
			}
		}
	}
}

// maxBurst caps the requests served as one burst.
const maxBurst = 64

// readBurst appends one request to reqs, waiting for it, and then the
// requests whose frames are already buffered behind it, up to maxBurst.
// A frame that cannot be read or decoded ends the burst with an error;
// the requests before it are still returned, to be answered.
func readBurst(rd *bufio.Reader, reqs []request) ([]request, error) {
	for len(reqs) == 0 || (len(reqs) < maxBurst && frameBuffered(rd)) {
		body, err := readFrame(rd)
		if err != nil {
			return reqs, err
		}
		reqs = append(reqs, request{})
		if err := decodeRequest(body, &reqs[len(reqs)-1]); err != nil {
			return reqs[:len(reqs)-1], err
		}
	}
	return reqs, nil
}

// flushThreshold bounds the response bytes a session holds back.
const flushThreshold = 64 << 10

// outBufs recycles per-session response buffers, so a short session
// (one hello and one burst) does not grow a fresh buffer.
var outBufs = sync.Pool{New: func() any { b := make([]byte, 0, 8<<10); return &b }}

// connReaders recycles the connections' frame readers, the server
// sessions' and the clients' alike: a fleet rollout opens one
// connection per target. Frames are copied out of the reader
// (readFrame), so no frame outlives its reader's connection. A session
// returns its reader when it ends; a Client returns its reader on
// Close, once no exchange holds it (a canceled exchange can still be
// reading in the background).
var connReaders = sync.Pool{New: func() any { return bufio.NewReader(nil) }}

// serveBurst answers a burst in request order, appending to resps. A
// hello or status request runs alone, after everything before it; the
// patch requests between two of them are served by servePatches under
// the session current at that point.
func (s *Server) serveBurst(sess **session, reqs []request, resps []response) []response {
	resps = append(resps, make([]response, len(reqs))...)
	run := 0 // first request of the current run of patch requests
	for i := range reqs {
		if reqs[i].Kind == kindPatch {
			continue
		}
		s.servePatches(*sess, reqs[run:i], resps[run:i])
		resps[i] = s.handle(sess, &reqs[i])
		run = i + 1
	}
	s.servePatches(*sess, reqs[run:], resps[run:])
	return resps
}

// servePatches answers a run of patch requests into resps. The
// cache-bypass fault point is consulted for each request in request
// order before any build starts, so a seeded schedule fires on the same
// request every run. The requests then build concurrently through the
// single-flight cache, the first on the calling goroutine; a run of
// one starts no goroutine.
func (s *Server) servePatches(sess *session, reqs []request, resps []response) {
	if len(reqs) == 0 {
		return
	}
	if sess == nil {
		for i := range resps {
			resps[i] = response{Err: "hello required before patch requests"}
		}
		return
	}
	for i := range reqs {
		s.bypassCache(sess.info, reqs[i].CVE)
	}
	var wg sync.WaitGroup
	for i := 1; i < len(reqs); i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			resps[i] = s.patchResponse(sess, reqs[i].CVE)
		}()
	}
	resps[0] = s.patchResponse(sess, reqs[0].CVE)
	wg.Wait()
}

// patchResponse builds the response to one patch request: the
// plaintext artifact, which the ordered append seals for the session.
func (s *Server) patchResponse(sess *session, cve string) response {
	plain, err := s.PatchPlaintext(sess.info, cve)
	if err != nil {
		return response{Err: err.Error()}
	}
	return response{plain: plain, crypt: sess.crypt}
}

// handle answers one hello or status request; patch requests are
// answered by servePatches.
func (s *Server) handle(sess **session, req *request) response {
	switch req.Kind {
	case kindHello:
		return s.handleHello(sess, req)
	case kindStatus:
		return s.handleStatus(*sess, req)
	default:
		return response{Err: fmt.Sprintf("unknown request kind %q", req.Kind)}
	}
}

func (s *Server) handleHello(sess **session, req *request) response {
	// Every target registers its status-attestation key at hello: the
	// channel key derives from it, and every status report is checked
	// against it.
	if len(req.AttKey) == 0 {
		return response{Err: "hello refused: no status-attestation key"}
	}
	// Verify the enclave identity: a genuine KShot preparation enclave
	// for the reported kernel version has a known measurement. This is
	// how the server refuses to provision keys to an impostor enclave
	// (§V-C's MITM mitigation).
	expected := sgx.MeasureIdentity(sgxprep.Identity(req.Info.Version))
	if req.Measurement != expected {
		return response{Err: "enclave attestation failed: unexpected measurement"}
	}
	if _, known := s.versions.Load(req.Info.Version); !known {
		if _, err := s.trees(req.Info.Version); err != nil {
			return response{Err: fmt.Sprintf("unsupported kernel: %v", err)}
		}
		s.versions.Store(req.Info.Version, struct{}{})
	}
	key := kcrypto.DeriveKey(s.keyRoot, []byte(req.Info.Version),
		wire.AppendBool(nil, req.Info.Ftrace), wire.AppendBool(nil, req.Info.Inline),
		req.Measurement[:], req.AttKey)
	crypt, err := kcrypto.NewSession(key[:], nil)
	if err != nil {
		return response{Err: err.Error()}
	}
	*sess = &session{
		info: req.Info, serverKey: key[:], crypt: crypt,
		attKey: append([]byte(nil), req.AttKey...),
	}
	return response{ServerKey: key[:]}
}

// handleStatus records a target's status report in its attestation
// key's record. Only a session that completed its attested hello may
// report, so an anonymous connection cannot grow the record. A report
// whose MAC fails is counted and kept as the newest forgery; an
// authentic one whose sequence number does not advance the key's
// newest is acknowledged but not recorded again.
func (s *Server) handleStatus(sess *session, req *request) response {
	if sess == nil {
		return response{Err: "hello required before status reports"}
	}
	authentic := false
	// SMM MACs a DigestSize digest; a record carrying any other length
	// is not one SMM wrote.
	if len(req.MAC) == kcrypto.DigestSize && len(req.Digest) == kcrypto.DigestSize {
		var mac [kcrypto.DigestSize]byte
		copy(mac[:], req.MAC)
		var in [4 + 8 + kcrypto.DigestSize]byte
		authentic = kcrypto.VerifyMAC(sess.attKey, kcrypto.AppendStatusMACInput(in[:0], req.Code, req.Seq, req.Digest), mac)
	}
	now := time.Now()
	s.mu.Lock()
	defer s.mu.Unlock()
	st := s.statuses[string(sess.attKey)]
	if st == nil {
		st = &TargetStatus{}
		s.statuses[string(sess.attKey)] = st
	}
	switch {
	case !authentic:
		st.Forgeries++
		st.Forged.set(req.Code, req.Seq, req.Digest, now)
	case req.Seq > st.Authentic.Seq:
		st.Authentic.set(req.Code, req.Seq, req.Digest, now)
	}
	return response{}
}

// bypassCache consults the cache-bypass fault point for one patch
// request. When it fires, the request's cached artifact is dropped, so
// the build that follows takes the full rebuild path (the cache
// corruption / cold restart model).
func (s *Server) bypassCache(info OSInfo, cve string) {
	if _, ok := s.obs.Load().Fault(faultinject.BuildCacheBypass); ok {
		s.cache.invalidate(buildKey{version: info.Version, ftrace: info.Ftrace, inline: info.Inline, cve: cve})
	}
}

// PatchPlaintext returns the plaintext binary patch for (info, cve):
// rebuild pre/post kernels with the target's exact configuration,
// extract the binary diff, encode. It is served from the bounded
// single-flight build cache: concurrent identical requests share one
// build, later ones hit the cache. A patch registered prebuilt
// (RegisterBinaryPatch) skips the cache and the build. The result is
// shared and must not be changed. A patch request is served by
// bypassCache, then this; the session's seal runs as the response is
// appended to its frame, so every session's ciphertext is keyed to its
// own channel.
func (s *Server) PatchPlaintext(info OSInfo, cve string) ([]byte, error) {
	s.mu.Lock()
	sp, ok := s.patches[cve]
	plain, prebuilt := s.prebuilt[cve]
	s.mu.Unlock()
	if prebuilt {
		return plain, nil
	}
	if !ok {
		return nil, fmt.Errorf("no patch registered for %q", cve)
	}
	key := buildKey{version: info.Version, ftrace: info.Ftrace, inline: info.Inline, cve: cve}
	ob := s.obs.Load()
	plain, outcome, evicted, err := s.cache.getOrBuild(key, func() ([]byte, error) {
		start := time.Now()
		p, err := s.buildPlain(info, sp)
		if err == nil {
			s.builds.Add(1)
			ob.Count(obs.CtrBuilds, 1)
			ob.ObserveDur(obs.HistBuildLatency, time.Since(start))
		}
		return p, err
	})
	if evicted > 0 {
		ob.Count(obs.CtrCacheEvicted, int64(evicted))
	}
	switch outcome {
	case outcomeHit:
		ob.Count(obs.CtrCacheHits, 1)
	case outcomeBuilt:
		ob.Count(obs.CtrCacheMisses, 1)
	case outcomeCoalesced:
		ob.Count(obs.CtrCacheCoalesced, 1)
	}
	return plain, err
}

// buildPlain performs the expensive part once per cache key: rebuild
// the pre- and post-patch kernels with the target's configuration,
// extract the function-level binary diff, and encode it. The
// result is plaintext — per-session encryption happens per response,
// as it is appended to the frame, which is what keeps the cache safe
// to share across targets (§V-A's confidentiality argument needs
// ciphertext per channel, not per build).
func (s *Server) buildPlain(info OSInfo, sp kernel.SourcePatch) ([]byte, error) {
	pre, err := s.trees(info.Version)
	if err != nil {
		return nil, err
	}
	// Apply the target's build configuration knobs.
	cfg := pre.Config()
	cfg.Ftrace = info.Ftrace
	cfg.Inline = info.Inline
	preTree := kernel.NewSourceTree(cfg)
	for _, f := range pre.Files() {
		src, _ := pre.File(f)
		preTree.AddFile(f, src)
	}
	preImg, preUnit, err := preTree.Build()
	if err != nil {
		return nil, fmt.Errorf("pre build: %w", err)
	}
	postTree := preTree.Clone()
	if err := postTree.Apply(sp); err != nil {
		return nil, err
	}
	postImg, postUnit, err := postTree.Build()
	if err != nil {
		return nil, fmt.Errorf("post build: %w", err)
	}
	bp, err := patch.Build(sp.ID, info.Version, patch.ImagePair{Img: preImg, Unit: preUnit}, patch.ImagePair{Img: postImg, Unit: postUnit})
	if err != nil {
		return nil, err
	}
	return patch.Encode(bp), nil
}

// DefaultDialTimeout bounds the client's one TCP connect attempt.
const DefaultDialTimeout = 5 * time.Second

// DialOption tunes a Client.
type DialOption func(*Client)

// WithClientObserver installs the instrumentation handle at dial
// time, so the dial-path fault (faultinject.DialError) can fire on the
// connect itself (see Client.SetObserver). The handle's clock paces
// injected fetch latency.
func WithClientObserver(ob *obs.Hooks) DialOption {
	return func(c *Client) { c.obs.Store(ob) }
}

// Client is the target machine's connection to the patch server. Its
// methods are invoked by the untrusted helper application; everything
// it carries is ciphertext or public. A Client holds the one connection
// Dial opened until Close: a transport failure is returned to the
// caller, never retried on a fresh connection.
type Client struct {
	conn net.Conn

	// mu serializes request bursts: one exchange owns the connection
	// end to end. rd, under it, is the connection's pooled frame
	// reader, nil once Close has returned it.
	mu sync.Mutex
	rd *bufio.Reader

	obs atomic.Pointer[obs.Hooks]
}

// Dial makes one connect attempt to the server, bounded by
// DefaultDialTimeout and canceled with ctx.
func Dial(ctx context.Context, addr string, opts ...DialOption) (*Client, error) {
	c := &Client{}
	for _, o := range opts {
		o(c)
	}
	if f, ok := c.obs.Load().Fault(faultinject.DialError); ok {
		return nil, fmt.Errorf("patchserver dial: %w", f.Err())
	}
	d := net.Dialer{Timeout: DefaultDialTimeout}
	conn, err := d.DialContext(ctx, "tcp", addr)
	if err != nil {
		return nil, fmt.Errorf("patchserver dial: %w", err)
	}
	rd := connReaders.Get().(*bufio.Reader)
	rd.Reset(conn)
	c.conn, c.rd = conn, rd
	return c, nil
}

// Close closes the connection and returns its reader to the pool. A
// canceled exchange still running in the background holds the reader
// until its read fails on the closed connection, so Close waits for it
// to release c.mu first. Later calls fail with net.ErrClosed.
func (c *Client) Close() error {
	err := c.conn.Close()
	c.mu.Lock()
	if c.rd != nil {
		c.rd.Reset(nil)
		connReaders.Put(c.rd)
		c.rd = nil
	}
	c.mu.Unlock()
	return err
}

// SetObserver installs (or, with nil, removes) the instrumentation
// handle counting per-CVE fetch outcomes; its fault set is consulted on
// the dial and on every fetch result, and its clock paces injected
// fetch latency.
func (c *Client) SetObserver(ob *obs.Hooks) { c.obs.Store(ob) }

func (c *Client) roundTrip(ctx context.Context, req *request) (*response, error) {
	resps, err := c.roundTrips(ctx, []*request{req})
	if err != nil {
		return nil, err
	}
	if resps[0].Err != "" {
		return nil, errors.New("patchserver: " + resps[0].Err)
	}
	return resps[0], nil
}

// roundTrips sends a pipelined burst of requests and collects the
// responses in order. The server's per-connection loop processes
// requests sequentially, so pipelining N fetches saves N-1 round trip
// waits without any protocol change. A transport failure (send or
// receive error, a connection the server reaped) is returned as is.
//
// Cancellation is logical, not transport-level: when ctx fires, the
// call returns immediately, but the exchange finishes in the
// background under the connection mutex, so the connection never holds
// half-read responses and the client remains usable. A context that
// can never be canceled runs the exchange on the caller's goroutine.
func (c *Client) roundTrips(ctx context.Context, reqs []*request) ([]*response, error) {
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	if ctx.Done() == nil {
		return c.exchange(reqs)
	}
	type outcome struct {
		resps []*response
		err   error
	}
	ch := make(chan outcome, 1)
	go func() {
		resps, err := c.exchange(reqs)
		ch <- outcome{resps, err}
	}()
	select {
	case <-ctx.Done():
		return nil, ctx.Err()
	case out := <-ch:
		return out.resps, out.err
	}
}

// exchange writes reqs as one burst under c.mu and reads their
// responses.
func (c *Client) exchange(reqs []*request) ([]*response, error) {
	c.mu.Lock()
	defer c.mu.Unlock()
	if c.rd == nil {
		return nil, fmt.Errorf("patchserver send: %w", net.ErrClosed)
	}
	var burst []byte
	for _, req := range reqs {
		burst = appendRequest(burst, req)
	}
	if _, err := c.conn.Write(burst); err != nil {
		return nil, fmt.Errorf("patchserver send: %w", err)
	}
	resps := make([]*response, 0, len(reqs))
	for range reqs {
		body, err := readFrame(c.rd)
		if err != nil {
			return nil, fmt.Errorf("patchserver recv: %w", err)
		}
		resp, err := decodeResponse(body)
		if err != nil {
			return nil, fmt.Errorf("patchserver recv: %w", err)
		}
		resps = append(resps, resp)
	}
	return resps, nil
}

// HelloWithAttestation registers the target's OS information, enclave
// measurement and status-attestation key, and returns the
// server→enclave channel key (provisioned under the attested
// measurement). The server authenticates deployment confirmations with
// the attestation key and refuses a hello without one.
func (c *Client) HelloWithAttestation(info OSInfo, meas sgx.Measurement, attKey []byte) ([]byte, error) {
	req := &request{Kind: kindHello, Info: info, Measurement: meas, AttKey: attKey}
	resp, err := c.roundTrip(context.Background(), req)
	if err != nil {
		return nil, err
	}
	if len(resp.ServerKey) != 32 {
		return nil, errors.New("patchserver: malformed server key")
	}
	return resp.ServerKey, nil
}

// FetchResult is one CVE's outcome from a pipelined fetch.
type FetchResult struct {
	CVE  string
	Blob []byte
	Err  error
}

// FetchPatches downloads many encrypted binary patches in one
// pipelined burst over the connection. The returned slice matches cves
// in order; per-CVE failures land in FetchResult.Err while the error
// return is reserved for transport-level failures.
func (c *Client) FetchPatches(ctx context.Context, cves []string) ([]FetchResult, error) {
	reqs := make([]*request, len(cves))
	for i, cve := range cves {
		reqs[i] = &request{Kind: kindPatch, CVE: cve}
	}
	ob := c.obs.Load()
	resps, err := c.roundTrips(ctx, reqs)
	if err != nil {
		return nil, err
	}
	out := make([]FetchResult, len(cves))
	for i, resp := range resps {
		out[i].CVE = cves[i]
		ob.Count(obs.CtrFetches, 1)
		// Injected transport failures, applied per result: extra
		// latency (an induced timeout when ctx expires first), a
		// failed fetch, or a truncated body the enclave must reject.
		if f, ok := ob.Fault(faultinject.FetchDelay); ok {
			if !ob.Clock().Sleep(ctx, f.Delay) {
				return nil, ctx.Err()
			}
		}
		if f, ok := ob.Fault(faultinject.FetchError); ok {
			out[i].Err = fmt.Errorf("patchserver: %s: %w", cves[i], f.Err())
			ob.Count(obs.CtrFetchErrors, 1)
			continue
		}
		if resp.Err != "" {
			out[i].Err = errors.New("patchserver: " + resp.Err)
			ob.Count(obs.CtrFetchErrors, 1)
			continue
		}
		blob := resp.Blob
		if f, ok := ob.Fault(faultinject.FetchTruncate); ok {
			blob = blob[:f.Keep(len(blob))]
		}
		out[i].Blob = blob
	}
	return out, nil
}

// ReportStatusMAC forwards the SMM status mailbox record together with
// its HMAC to the server (the deployment-progress handshake the server
// uses for DoS detection). ctx bounds the wait for the server's
// acknowledgement (see roundTrips).
func (c *Client) ReportStatusMAC(ctx context.Context, code uint32, seq uint64, digest, mac []byte) error {
	_, err := c.roundTrip(ctx, &request{Kind: kindStatus, Code: code, Seq: seq, Digest: digest, MAC: mac})
	return err
}
