// Command kshotd is the target-machine side of KShot: it boots the
// simulated machine with a kernel vulnerable to the requested CVEs,
// provisions SMM, then at the first patch connects to the remote patch
// server and loads the SGX preparation enclave, and live-patches each
// CVE — printing the
// exploit result before and after, the per-stage timing, and the
// introspection status.
//
// Usage:
//
//	kshotd -server 127.0.0.1:7714 [-version 4.4] [-cves CVE-2014-0196,CVE-2016-5195] [-rollback]
//
// Run kshot-patchserver first (or pass -standalone to spin up an
// in-process server).
package main

import (
	"context"
	"flag"
	"fmt"
	"net"
	"net/http"
	"os"
	"strings"

	"kshot/internal/core"
	"kshot/internal/cvebench"
	"kshot/internal/introspect"
	"kshot/internal/obs"
	"kshot/internal/patchserver"
	"kshot/internal/report"
)

func main() {
	if err := run(os.Args[1:]); err != nil {
		fmt.Fprintln(os.Stderr, "kshotd:", err)
		os.Exit(1)
	}
}

func run(args []string) error {
	fs := flag.NewFlagSet("kshotd", flag.ContinueOnError)
	server := fs.String("server", "", "patch server address")
	version := fs.String("version", "4.4", "kernel version to boot (3.14 or 4.4)")
	cves := fs.String("cves", "CVE-2014-0196,CVE-2016-5195,CVE-2017-17806", "comma-separated CVEs to patch")
	rollback := fs.Bool("rollback", false, "roll each patch back after applying (demonstration)")
	standalone := fs.Bool("standalone", false, "start an in-process patch server")
	obsAddr := fs.String("obs", "", "serve /metrics and /trace on this address while patching")
	introPeriod := fs.Duration("introspect", 0, "enable event-driven introspection, sweeping kernel text at this period (0 disables)")
	if err := fs.Parse(args); err != nil {
		return err
	}

	var entries []*cvebench.Entry
	extra := map[string]string{}
	for _, id := range strings.Split(*cves, ",") {
		id = strings.TrimSpace(id)
		e, ok := cvebench.Get(id)
		if !ok {
			return fmt.Errorf("unknown CVE %q (see kshot-cvelist)", id)
		}
		entries = append(entries, e)
		extra[e.File] = e.Vuln
	}

	addr := *server
	var standaloneSrv *patchserver.Server
	if *standalone {
		srv, err := patchserver.New(patchserver.WithTreeProvider(cvebench.TreeProviderFor(entries...)))
		if err != nil {
			return err
		}
		defer srv.Close()
		for _, e := range entries {
			srv.RegisterPatch(e.SourcePatch())
		}
		standaloneSrv = srv
		addr = srv.Addr()
		fmt.Printf("standalone patch server on %s\n", addr)
	}
	if addr == "" {
		return fmt.Errorf("no patch server: pass -server or -standalone")
	}

	var hooks *obs.Hooks
	if *obsAddr != "" {
		hooks = obs.NewHooks(0, nil)
		if standaloneSrv != nil {
			// Server-side cache/connection metrics land in the same
			// registry as the target's pipeline metrics.
			standaloneSrv.SetObserver(hooks)
		}
	}

	sysOpts := core.Options{
		Version:    *version,
		ExtraFiles: extra,
		ServerAddr: addr,
	}
	if *introPeriod > 0 {
		sysOpts.Introspection = &introspect.Config{SweepEvery: *introPeriod}
	}
	fmt.Printf("booting target machine: kernel %s, %d vulnerable subsystems\n", *version, len(entries))
	sys, err := core.NewSystemCtx(context.Background(), sysOpts)
	if err != nil {
		return err
	}
	defer sys.Close()
	fmt.Println("forked from template; SMM locked, server attach on first patch")

	if hooks != nil {
		sys.SetObserver(hooks)
		// Resident-frame split of the target's physical memory: the
		// private gauge is the fork's marginal footprint.
		hooks.GaugeFunc(obs.GaugeMemSharedBytes, func() int64 {
			return int64(sys.Machine.Mem.ResidentStats().SharedBytes)
		})
		hooks.GaugeFunc(obs.GaugeMemPrivateBytes, func() int64 {
			return int64(sys.Machine.Mem.ResidentStats().PrivateBytes)
		})
		ln, err := net.Listen("tcp", *obsAddr)
		if err != nil {
			return fmt.Errorf("obs listener: %w", err)
		}
		defer ln.Close()
		go func() { _ = http.Serve(ln, hooks.Mux()) }()
		fmt.Printf("observability on http://%s (/metrics, /trace)\n", ln.Addr())
	}

	for _, e := range entries {
		fmt.Printf("\n=== %s (%s, type %s) ===\n", e.CVE, strings.Join(e.Functions, ", "), e.TypesString())
		res, err := e.Exploit(sys.Kernel, 0)
		if err != nil {
			return err
		}
		fmt.Printf("  exploit before patch: vulnerable=%v (%s)\n", res.Vulnerable, res.Detail)

		rep, err := sys.Apply(context.Background(), e.CVE)
		if err != nil {
			return fmt.Errorf("apply %s: %w", e.CVE, err)
		}
		st := rep.Stages
		fmt.Printf("  patched %dB payload: SGX prep %sus (fetch %sus, preprocess %sus, pass %sus)\n",
			st.PayloadBytes, report.Us(st.SGXTotal()), report.Us(st.Fetch), report.Us(st.Preprocess), report.Us(st.Pass))
		fmt.Printf("  OS paused %sus (switch %sus, keygen %sus, decrypt %sus, verify %sus, apply %sus)\n",
			report.Us(st.SMMTotal()), report.Us(st.Switch), report.Us(st.KeyGen),
			report.Us(st.Decrypt), report.Us(st.Verify), report.Us(st.Apply))

		res, err = e.Exploit(sys.Kernel, 0)
		if err != nil {
			return err
		}
		fmt.Printf("  exploit after patch:  vulnerable=%v (%s)\n", res.Vulnerable, res.Detail)

		tampered, err := sys.Protect()
		if err != nil {
			return err
		}
		fmt.Printf("  introspection: tampering=%v\n", tampered)

		if *rollback {
			if _, err := sys.Rollback(context.Background(), e.CVE); err != nil {
				return fmt.Errorf("rollback %s: %w", e.CVE, err)
			}
			res, err = e.Exploit(sys.Kernel, 0)
			if err != nil {
				return err
			}
			fmt.Printf("  rolled back: vulnerable=%v\n", res.Vulnerable)
		}
	}

	fmt.Printf("\napplied patches: %v\n", sys.Applied())
	fmt.Printf("total SMIs: %d, virtual time elapsed: %v\n", sys.SMM.Entries(), sys.Clock.Now())
	if det := sys.Introspection(); det != nil {
		st := det.Stats()
		fmt.Printf("introspection: %d sweeps, %d detections\n", st.Sweeps, st.Detections)
		for _, v := range det.Verdicts() {
			fmt.Printf("  verdict: %s %s\n", v.Kind, v.Detail)
		}
	}
	if hooks != nil {
		fmt.Println("\nobservability summary:")
		if err := hooks.Metrics.Snapshot().RenderText(os.Stdout); err != nil {
			return err
		}
	}
	return nil
}
