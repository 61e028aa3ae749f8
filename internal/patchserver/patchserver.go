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
// finish in-flight responses, then close). The client side matches
// with context-aware dial/request retry over timing.WallClock and
// per-operation I/O deadlines.
//
// The wire protocol is length-prefixed binary frames over TCP (stdlib
// net); see frame.go.
package patchserver

import (
	"bufio"
	"context"
	"crypto/rand"
	"encoding/binary"
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
	"kshot/internal/timing"
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

	// patch
	Blob []byte
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
	statuses []StatusReport
	conns    map[net.Conn]struct{}
	closed   bool
	wg       sync.WaitGroup

	// keyRoot derives the server→enclave channel key of an attested
	// target from its identity (version, build knobs, measurement and
	// attestation key), so every helper connection a target opens —
	// pipelined fetching, reconnects — encrypts to the one key its
	// enclave holds, with no per-target state on the server. Anonymous
	// hellos (empty AttKey) get a fresh random key per connection.
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

	// Authentic reports whether the record's HMAC verified under the
	// attestation key the target registered at hello. A forged
	// confirmation (a kernel attacker scribbling on the mem_RW mailbox
	// to mask a suppressed deployment) arrives with Authentic=false.
	Authentic bool
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

// Statuses returns the status reports received so far.
func (s *Server) Statuses() []StatusReport {
	s.mu.Lock()
	defer s.mu.Unlock()
	return append([]StatusReport(nil), s.statuses...)
}

// AwaitStatus waits for a target status report with sequence number
// greater than `after`. Returning ok=false after the timeout is the
// paper's DoS detection (§V-D): the server initiated a patch, but the
// target's helper never confirmed deployment — an attacker is likely
// suppressing the patching flow and the operator should intervene.
func (s *Server) AwaitStatus(after uint64, timeout time.Duration) (StatusReport, bool) {
	deadline := time.Now().Add(timeout)
	for {
		s.mu.Lock()
		for _, st := range s.statuses {
			if st.Seq > after {
				s.mu.Unlock()
				return st, true
			}
		}
		s.mu.Unlock()
		if time.Now().After(deadline) {
			return StatusReport{}, false
		}
		time.Sleep(time.Millisecond)
	}
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
	rd := bufio.NewReader(conn)
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
	var sess *session

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
		body, err := readFrame(rd)
		if err != nil {
			return // EOF, timeout, oversized frame, or broken peer
		}
		req, err := decodeRequest(body)
		if err != nil {
			return // malformed frame
		}
		pending = appendResponse(pending, s.handle(&sess, req))
		if len(pending) > flushThreshold || !frameBuffered(rd) {
			if err := flush(); err != nil {
				return
			}
		}
	}
}

// flushThreshold bounds the response bytes a session holds back.
const flushThreshold = 64 << 10

// outBufs recycles per-session response buffers, so a short session
// (one hello and one burst) does not grow a fresh buffer.
var outBufs = sync.Pool{New: func() any { b := make([]byte, 0, 8<<10); return &b }}

func (s *Server) handle(sess **session, req *request) *response {
	switch req.Kind {
	case kindHello:
		return s.handleHello(sess, req)
	case kindPatch:
		return s.handlePatch(*sess, req)
	case kindStatus:
		rep := StatusReport{
			Code: req.Code, Seq: req.Seq,
			Digest: append([]byte(nil), req.Digest...),
			At:     time.Now(),
		}
		if sess := *sess; sess != nil && len(sess.attKey) > 0 && len(req.MAC) == kcrypto.DigestSize {
			buf := make([]byte, 12+len(req.Digest))
			binary.LittleEndian.PutUint32(buf, req.Code)
			binary.LittleEndian.PutUint64(buf[4:], req.Seq)
			copy(buf[12:], req.Digest)
			var mac [kcrypto.DigestSize]byte
			copy(mac[:], req.MAC)
			rep.Authentic = kcrypto.VerifyMAC(sess.attKey, buf, mac)
		}
		s.mu.Lock()
		s.statuses = append(s.statuses, rep)
		s.mu.Unlock()
		return &response{}
	default:
		return &response{Err: fmt.Sprintf("unknown request kind %q", req.Kind)}
	}
}

func (s *Server) handleHello(sess **session, req *request) *response {
	// Verify the enclave identity: a genuine KShot preparation enclave
	// for the reported kernel version has a known measurement. This is
	// how the server refuses to provision keys to an impostor enclave
	// (§V-C's MITM mitigation).
	expected := sgx.MeasureIdentity(sgxprep.Identity(req.Info.Version))
	if req.Measurement != expected {
		return &response{Err: "enclave attestation failed: unexpected measurement"}
	}
	if _, known := s.versions.Load(req.Info.Version); !known {
		if _, err := s.trees(req.Info.Version); err != nil {
			return &response{Err: fmt.Sprintf("unsupported kernel: %v", err)}
		}
		s.versions.Store(req.Info.Version, struct{}{})
	}
	var key []byte
	if len(req.AttKey) > 0 {
		key = kcrypto.DeriveKey(s.keyRoot, []byte(req.Info.Version),
			wire.AppendBool(nil, req.Info.Ftrace), wire.AppendBool(nil, req.Info.Inline),
			req.Measurement[:], req.AttKey)
	} else {
		key = make([]byte, 32)
		if _, err := io.ReadFull(rand.Reader, key); err != nil {
			return &response{Err: "server entropy failure"}
		}
	}
	crypt, err := kcrypto.NewSession(key, nil)
	if err != nil {
		return &response{Err: err.Error()}
	}
	*sess = &session{
		info: req.Info, serverKey: key, crypt: crypt,
		attKey: append([]byte(nil), req.AttKey...),
	}
	return &response{ServerKey: key}
}

func (s *Server) handlePatch(sess *session, req *request) *response {
	if sess == nil {
		return &response{Err: "hello required before patch requests"}
	}
	blob, err := s.BuildPatchBlob(sess.info, req.CVE, sess.crypt)
	if err != nil {
		return &response{Err: err.Error()}
	}
	return &response{Blob: blob}
}

// BuildPatchBlob returns the encrypted binary patch for (info, cve),
// encrypting for the given session. The underlying plaintext artifact
// — rebuild pre/post kernels with the target's exact configuration,
// extract the binary diff, encode — is served from the bounded
// single-flight build cache: concurrent identical requests share one
// build, later ones hit the cache. Encryption always runs per call, so
// every session's ciphertext is keyed to its own channel. A patch
// registered prebuilt (RegisterBinaryPatch) skips the cache and the
// build. Exposed for in-process use by benchmarks that bypass TCP.
func (s *Server) BuildPatchBlob(info OSInfo, cve string, crypt *kcrypto.Session) ([]byte, error) {
	s.mu.Lock()
	sp, ok := s.patches[cve]
	plain, prebuilt := s.prebuilt[cve]
	s.mu.Unlock()
	if prebuilt {
		return crypt.Encrypt(plain)
	}
	if !ok {
		return nil, fmt.Errorf("no patch registered for %q", cve)
	}
	key := buildKey{version: info.Version, ftrace: info.Ftrace, inline: info.Inline, cve: cve}
	ob := s.obs.Load()
	if _, ok := ob.Fault(faultinject.BuildCacheBypass); ok {
		// Injected cache loss: drop the entry so this request takes the
		// full rebuild path (cache corruption / cold restart model).
		s.cache.invalidate(key)
	}
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
	if err != nil {
		return nil, err
	}
	return crypt.Encrypt(plain)
}

// buildPlain performs the expensive part once per cache key: rebuild
// the pre- and post-patch kernels with the target's configuration,
// extract the function-level binary diff, and encode it. The
// result is plaintext — per-session encryption happens per request in
// BuildPatchBlob, which is what keeps the cache safe to share across
// targets (§V-A's confidentiality argument needs ciphertext per
// channel, not per build).
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

// Client tuning defaults.
const (
	// DefaultDialTimeout bounds one TCP connect attempt.
	DefaultDialTimeout = 5 * time.Second

	// DefaultRetryBackoff is the base delay before the first dial or
	// request retry; it doubles per attempt.
	DefaultRetryBackoff = 50 * time.Millisecond
)

// clientConfig collects the DialOption-tunable knobs.
type clientConfig struct {
	dialTimeout    time.Duration
	dialRetries    int
	requestRetries int
	retryBackoff   time.Duration
	ioTimeout      time.Duration
	wall           timing.WallClock
	obs            *obs.Hooks
}

// DialOption tunes a Client. Every With* validates its argument
// eagerly; Dial reports the first rejected option as a typed
// *options.Error matching options.ErrInvalid.
type DialOption func(*clientConfig) error

func dialOptErr(option, format string, a ...any) error {
	return options.Errorf("patchserver.Dial", option, format, a...)
}

// WithDialTimeout bounds each TCP connect attempt.
func WithDialTimeout(d time.Duration) DialOption {
	return func(c *clientConfig) error {
		if d < 0 {
			return dialOptErr("WithDialTimeout", "must be >= 0, got %v", d)
		}
		c.dialTimeout = d
		return nil
	}
}

// WithDialRetries allows n additional dial attempts after a failed
// connect, with exponential backoff between attempts.
func WithDialRetries(n int) DialOption {
	return func(c *clientConfig) error {
		if n < 0 {
			return dialOptErr("WithDialRetries", "must be >= 0, got %d", n)
		}
		c.dialRetries = n
		return nil
	}
}

// WithRequestRetries allows n reconnect-and-replay attempts when a
// request burst fails at the transport level (send/receive error, a
// reaped idle connection). The client redials, replays its recorded
// hello, and resends the burst. Patch fetches are idempotent; status
// reports may be duplicated by a retry, which the server tolerates.
// Anonymous (non-attested) sessions receive a fresh channel key on
// reconnect, so callers holding a kcrypto session should only enable
// this together with an attested hello (whose key the server derives
// from the target's identity, so a reconnect gets the same key).
func WithRequestRetries(n int) DialOption {
	return func(c *clientConfig) error {
		if n < 0 {
			return dialOptErr("WithRequestRetries", "must be >= 0, got %d", n)
		}
		c.requestRetries = n
		return nil
	}
}

// WithRetryBackoff sets the base backoff before the first retry
// (doubling per attempt) for both dial and request retries.
func WithRetryBackoff(d time.Duration) DialOption {
	return func(c *clientConfig) error {
		if d < 0 {
			return dialOptErr("WithRetryBackoff", "must be >= 0, got %v", d)
		}
		c.retryBackoff = d
		return nil
	}
}

// WithIOTimeout arms a deadline on every socket read and write (zero
// disables; the server's idle deadline is then the only reaper).
func WithIOTimeout(d time.Duration) DialOption {
	return func(c *clientConfig) error {
		if d < 0 {
			return dialOptErr("WithIOTimeout", "must be >= 0, got %v", d)
		}
		c.ioTimeout = d
		return nil
	}
}

// WithClientWallClock sets the clock pacing retry backoff and injected
// latency (real time when nil). The chaos suite passes timing.FakeWall
// so retries never depend on the host clock.
func WithClientWallClock(wc timing.WallClock) DialOption {
	return func(c *clientConfig) error {
		c.wall = wc
		return nil
	}
}

// WithClientObserver installs the instrumentation handle at dial
// time, so dial-path faults (faultinject.DialError) can fire on the
// very first connect (see Client.SetObserver).
func WithClientObserver(ob *obs.Hooks) DialOption {
	return func(c *clientConfig) error {
		c.obs = ob
		return nil
	}
}

// Client is the target machine's connection to the patch server. Its
// methods are invoked by the untrusted helper application; everything
// it carries is ciphertext or public.
type Client struct {
	addr string
	cfg  clientConfig

	// mu serializes request bursts: one exchange owns the connection
	// end to end (including any reconnect-and-replay retries).
	mu sync.Mutex

	// connMu guards the connection state and the wall clock, so Close
	// and the Set* methods never block behind an exchange.
	connMu sync.Mutex
	conn   net.Conn
	rd     *bufio.Reader
	closed bool
	hello  *request // recorded attested hello, replayed on reconnect
	wall   timing.WallClock

	obs atomic.Pointer[obs.Hooks]
}

// Dial connects to the server.
func Dial(addr string, opts ...DialOption) (*Client, error) {
	return DialContext(context.Background(), addr, opts...)
}

// DialContext connects to the server, retrying failed connect attempts
// with exponential backoff when dial retries are configured. ctx
// cancels the connect and any backoff wait.
func DialContext(ctx context.Context, addr string, opts ...DialOption) (*Client, error) {
	cfg := clientConfig{
		dialTimeout:  DefaultDialTimeout,
		retryBackoff: DefaultRetryBackoff,
	}
	for _, o := range opts {
		if err := o(&cfg); err != nil {
			return nil, err
		}
	}
	conn, err := dialConn(ctx, addr, cfg, cfg.wall, cfg.obs)
	if err != nil {
		return nil, err
	}
	c := &Client{addr: addr, cfg: cfg, conn: conn, rd: bufio.NewReader(conn), wall: cfg.wall}
	c.obs.Store(cfg.obs)
	return c, nil
}

// dialConn runs the connect-with-backoff loop.
func dialConn(ctx context.Context, addr string, cfg clientConfig, wall timing.WallClock, ob *obs.Hooks) (net.Conn, error) {
	bo := timing.NewBackoff(wall, cfg.retryBackoff, 0)
	var lastErr error
	for attempt := 0; ; attempt++ {
		if f, ok := ob.Fault(faultinject.DialError); ok {
			lastErr = fmt.Errorf("patchserver dial: %w", f.Err())
		} else {
			d := net.Dialer{Timeout: cfg.dialTimeout}
			conn, err := d.DialContext(ctx, "tcp", addr)
			if err == nil {
				return conn, nil
			}
			lastErr = fmt.Errorf("patchserver dial: %w", err)
		}
		if attempt >= cfg.dialRetries {
			return nil, lastErr
		}
		ob.Count(obs.CtrDialRetries, 1)
		if !bo.Sleep(ctx) {
			return nil, ctx.Err()
		}
	}
}

// Close closes the connection.
func (c *Client) Close() error {
	c.connMu.Lock()
	defer c.connMu.Unlock()
	c.closed = true
	return c.conn.Close()
}

// SetWallClock replaces the clock that paces injected fetch latency
// and retry backoff (real time when nil).
func (c *Client) SetWallClock(wc timing.WallClock) {
	c.connMu.Lock()
	defer c.connMu.Unlock()
	c.wall = wc
}

// SetObserver installs (or, with nil, removes) the instrumentation
// handle counting per-CVE fetch outcomes and dial retries; its fault
// set is consulted on every dial attempt and fetch result.
func (c *Client) SetObserver(ob *obs.Hooks) { c.obs.Store(ob) }

// clock returns the clock pacing injected latency and retry backoff.
func (c *Client) clock() timing.WallClock {
	c.connMu.Lock()
	defer c.connMu.Unlock()
	if c.wall == nil {
		return timing.Real()
	}
	return c.wall
}

// transport snapshots the current connection endpoints.
func (c *Client) transport() (net.Conn, *bufio.Reader) {
	c.connMu.Lock()
	defer c.connMu.Unlock()
	return c.conn, c.rd
}

// recordHello remembers a successful attested hello for replay after a
// reconnect (only attested hellos converge on the same channel key, so
// only they are safe to replay transparently).
func (c *Client) recordHello(req *request) {
	c.connMu.Lock()
	defer c.connMu.Unlock()
	if len(req.AttKey) > 0 {
		c.hello = req
	}
}

// reconnect redials the server, swaps the connection, and replays the
// recorded hello so the new connection's session matches the old one.
func (c *Client) reconnect(ctx context.Context) error {
	c.connMu.Lock()
	if c.closed {
		c.connMu.Unlock()
		return errors.New("patchserver: client closed")
	}
	wall := c.wall
	hello := c.hello
	c.connMu.Unlock()

	conn, err := dialConn(ctx, c.addr, c.cfg, wall, c.obs.Load())
	if err != nil {
		return err
	}
	rd := bufio.NewReader(conn)
	if hello != nil {
		if err := c.exchangeOn(conn, rd, []*request{hello}, nil); err != nil {
			conn.Close()
			return fmt.Errorf("patchserver: hello replay: %w", err)
		}
	}
	c.connMu.Lock()
	if c.closed {
		c.connMu.Unlock()
		conn.Close()
		return errors.New("patchserver: client closed")
	}
	old := c.conn
	c.conn, c.rd = conn, rd
	c.connMu.Unlock()
	_ = old.Close()
	return nil
}

func (c *Client) roundTrip(req *request) (*response, error) {
	resps, err := c.roundTrips(context.Background(), []*request{req})
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
// waits without any protocol change.
//
// A transport-level failure (send/receive error, a reaped idle
// connection) triggers reconnect-and-replay when request retries are
// configured: the whole burst is resent on a fresh connection after
// the recorded hello is replayed.
//
// Cancellation is logical, not transport-level: when ctx fires, the
// call returns immediately, but the exchange finishes in the
// background under the connection mutex, so the connection never holds
// half-read responses and the client remains usable. (An abandoned
// fetch's responses are drained and discarded; retries stop once ctx
// is done.) A context that can never be canceled runs the exchange on
// the caller's goroutine.
func (c *Client) roundTrips(ctx context.Context, reqs []*request) ([]*response, error) {
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	if ctx.Done() == nil {
		return c.exchangeRetrying(ctx, reqs)
	}
	type outcome struct {
		resps []*response
		err   error
	}
	ch := make(chan outcome, 1)
	go func() {
		resps, err := c.exchangeRetrying(ctx, reqs)
		ch <- outcome{resps, err}
	}()
	select {
	case <-ctx.Done():
		return nil, ctx.Err()
	case out := <-ch:
		return out.resps, out.err
	}
}

// exchangeRetrying runs one burst under c.mu, reconnecting and
// replaying it after a transport failure while request retries remain.
func (c *Client) exchangeRetrying(ctx context.Context, reqs []*request) ([]*response, error) {
	c.mu.Lock()
	defer c.mu.Unlock()
	resps, err := c.exchange(reqs)
	if err != nil {
		bo := timing.NewBackoff(c.clock(), c.cfg.retryBackoff, 0)
		for attempt := 0; attempt < c.cfg.requestRetries && ctx.Err() == nil; attempt++ {
			if !bo.Sleep(ctx) {
				break
			}
			if rerr := c.reconnect(ctx); rerr != nil {
				err = rerr
				continue
			}
			resps, err = c.exchange(reqs)
			if err == nil {
				break
			}
		}
	}
	return resps, err
}

// exchange runs one burst on the current connection. Callers hold c.mu.
func (c *Client) exchange(reqs []*request) ([]*response, error) {
	conn, rd := c.transport()
	resps := make([]*response, 0, len(reqs))
	if err := c.exchangeOn(conn, rd, reqs, &resps); err != nil {
		return nil, err
	}
	return resps, nil
}

// exchangeOn writes reqs as one burst and reads their responses on the
// given endpoints, arming per-operation I/O deadlines when configured.
// When resps is nil the responses are still read (so none is left
// half-read on the connection) and checked for errors, but discarded —
// the hello-replay path uses this.
func (c *Client) exchangeOn(conn net.Conn, rd *bufio.Reader, reqs []*request, resps *[]*response) error {
	var burst []byte
	for _, req := range reqs {
		burst = appendRequest(burst, req)
	}
	if c.cfg.ioTimeout > 0 {
		_ = conn.SetWriteDeadline(time.Now().Add(c.cfg.ioTimeout))
	}
	if _, err := conn.Write(burst); err != nil {
		return fmt.Errorf("patchserver send: %w", err)
	}
	for range reqs {
		if c.cfg.ioTimeout > 0 {
			_ = conn.SetReadDeadline(time.Now().Add(c.cfg.ioTimeout))
		}
		body, err := readFrame(rd)
		if err != nil {
			return fmt.Errorf("patchserver recv: %w", err)
		}
		resp, err := decodeResponse(body)
		if err != nil {
			return fmt.Errorf("patchserver recv: %w", err)
		}
		if resps != nil {
			*resps = append(*resps, resp)
		} else if resp.Err != "" {
			return errors.New(resp.Err)
		}
	}
	return nil
}

// Hello registers the target's OS information and enclave measurement
// and returns the server→enclave channel key (provisioned under the
// attested measurement).
func (c *Client) Hello(info OSInfo, meas sgx.Measurement) ([]byte, error) {
	return c.HelloWithAttestation(info, meas, nil)
}

// HelloWithAttestation additionally registers the target's
// status-attestation key so the server can authenticate deployment
// confirmations.
func (c *Client) HelloWithAttestation(info OSInfo, meas sgx.Measurement, attKey []byte) ([]byte, error) {
	req := &request{Kind: kindHello, Info: info, Measurement: meas, AttKey: attKey}
	resp, err := c.roundTrip(req)
	if err != nil {
		return nil, err
	}
	if len(resp.ServerKey) != 32 {
		return nil, errors.New("patchserver: malformed server key")
	}
	c.recordHello(req)
	return resp.ServerKey, nil
}

// FetchResult is one CVE's outcome from a pipelined fetch.
type FetchResult struct {
	CVE  string
	Blob []byte
	Err  error
}

// FetchPatch downloads the encrypted binary patch for a CVE. The
// context cancels or deadlines the wait (see roundTrips for the
// cancellation semantics).
func (c *Client) FetchPatch(ctx context.Context, cve string) ([]byte, error) {
	rs, err := c.FetchPatches(ctx, []string{cve})
	if err != nil {
		return nil, err
	}
	if rs[0].Err != nil {
		return nil, rs[0].Err
	}
	return rs[0].Blob, nil
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
	wall, ob := c.clock(), c.obs.Load()
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
			if !wall.Sleep(ctx, f.Delay) {
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

// ReportStatus forwards the SMM status mailbox to the server (the
// deployment-progress handshake the server uses for DoS detection).
func (c *Client) ReportStatus(code uint32, seq uint64, digest []byte) error {
	return c.ReportStatusMAC(code, seq, digest, nil)
}

// ReportStatusMAC forwards a status record together with its HMAC.
func (c *Client) ReportStatusMAC(code uint32, seq uint64, digest, mac []byte) error {
	_, err := c.roundTrip(&request{Kind: kindStatus, Code: code, Seq: seq, Digest: digest, MAC: mac})
	return err
}
