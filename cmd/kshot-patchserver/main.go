// Command kshot-patchserver runs KShot's remote Patch Server: the
// trusted build machine that verifies target enclaves, rebuilds
// kernels with each target's exact configuration, and serves encrypted
// function-level binary patches for the full CVE benchmark catalogue.
//
// Usage:
//
//	kshot-patchserver [-addr 127.0.0.1:7714] [-max-conns N] [-idle 2m]
//	                  [-cache 64] [-obs 127.0.0.1:7780]
//	                  [-drain-timeout 10s]
//
// Targets (kshotd, or programs built on the kshot package) connect,
// upload their OS information and enclave measurement, and fetch
// patches by CVE identifier. Built artifacts are cached and shared
// across targets with the same kernel configuration; per-session
// encryption stays per-client. On Ctrl-C the server drains: it stops
// accepting, lets in-flight sessions finish (bounded by -drain-timeout
// and the idle deadline), then force-closes whatever remains.
package main

import (
	"context"
	"flag"
	"fmt"
	"net"
	"net/http"
	"os"
	"os/signal"
	"slices"
	"time"

	"kshot/internal/cvebench"
	"kshot/internal/obs"
	"kshot/internal/patchserver"
)

func main() {
	if err := run(os.Args[1:]); err != nil {
		fmt.Fprintln(os.Stderr, "kshot-patchserver:", err)
		os.Exit(1)
	}
}

func run(args []string) error {
	fs := flag.NewFlagSet("kshot-patchserver", flag.ContinueOnError)
	var (
		addr     = fs.String("addr", "127.0.0.1:7714", "listen address")
		maxConns = fs.Int("max-conns", 0, "max concurrently served connections (0 = unlimited)")
		wait     = fs.Duration("accept-wait", 0, "how long a full gate waits before refusing a connection (0 = backpressure only)")
		idle     = fs.Duration("idle", patchserver.DefaultIdleTimeout, "per-connection idle deadline (0 disables)")
		cacheCap = fs.Int("cache", patchserver.DefaultCacheCapacity, "build-cache entries (negative disables retention)")
		obsAddr  = fs.String("obs", "", "serve /metrics and /trace on this address (empty disables)")
		drainFor = fs.Duration("drain-timeout", 10*time.Second, "graceful drain bound at shutdown")
	)
	if err := fs.Parse(args); err != nil {
		return err
	}

	// The server's source view includes every benchmark subsystem, as
	// a distro vendor's tree would.
	all := cvebench.All()
	for _, e := range cvebench.FigureSix() {
		if e.FigureOnly {
			all = append(all, e)
		}
	}
	opts := []patchserver.ServerOption{
		patchserver.WithListenAddr(*addr),
		patchserver.WithTreeProvider(cvebench.TreeProviderFor(all...)),
		patchserver.WithIdleTimeout(*idle),
		patchserver.WithMaxConns(*maxConns),
		patchserver.WithAcceptWait(*wait),
		patchserver.WithCacheCapacity(*cacheCap),
	}
	var hooks *obs.Hooks
	if *obsAddr != "" {
		hooks = obs.NewHooks(obs.DefaultTraceCapacity, nil)
		opts = append(opts, patchserver.WithServerObserver(hooks))
	}
	srv, err := patchserver.New(opts...)
	if err != nil {
		return err
	}
	defer srv.Close()
	for _, e := range all {
		srv.RegisterPatch(e.SourcePatch())
	}

	if *obsAddr != "" {
		ln, err := net.Listen("tcp", *obsAddr)
		if err != nil {
			return fmt.Errorf("obs listener: %w", err)
		}
		defer ln.Close()
		go func() { _ = http.Serve(ln, hooks.Mux()) }()
		fmt.Printf("observability on http://%s/metrics and /trace\n", ln.Addr())
	}

	fmt.Printf("patch server listening on %s (%d patches in catalogue)\n", srv.Addr(), len(all))
	fmt.Println("supported kernels: 3.14, 4.4 — Ctrl-C to stop")

	sig := make(chan os.Signal, 1)
	signal.Notify(sig, os.Interrupt)
	<-sig
	fmt.Println("\ndraining (in-flight sessions finish, no new connections)")
	ctx, cancel := context.WithTimeout(context.Background(), *drainFor)
	defer cancel()
	if err := srv.Drain(ctx); err != nil {
		fmt.Printf("drain incomplete after %v (%v); force-closing %d live connections\n",
			*drainFor, err, srv.Live())
	}
	srv.Close()

	fmt.Printf("served: %d kernel builds, %d artifacts cached, %d connections refused\n",
		srv.Builds(), srv.CachedArtifacts(), srv.Refused())
	if hooks != nil {
		_ = hooks.Metrics.Snapshot().RenderText(os.Stdout)
	}
	// One record per attestation key, oldest confirmation first; the
	// key itself is the target's secret and is not printed.
	var statuses []patchserver.TargetStatus
	for _, st := range srv.Statuses() {
		statuses = append(statuses, st)
	}
	slices.SortFunc(statuses, func(a, b patchserver.TargetStatus) int { return a.Authentic.At.Compare(b.Authentic.At) })
	for _, st := range statuses {
		fmt.Printf("  target status: code=%d seq=%d at=%s, %d forged\n",
			st.Authentic.Code, st.Authentic.Seq, st.Authentic.At.Format("15:04:05"), st.Forgeries)
	}
	return nil
}
