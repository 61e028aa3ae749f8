package patchserver

import (
	"context"
	"sync"
	"testing"

	"kshot/internal/cvebench"
)

// BenchmarkFleetFetch measures per-request patch delivery over real
// TCP loopback with the build cache cold (every request pays the
// double kernel build) versus warm (requests hit the cached artifact
// and only pay per-session encryption + transport), across fleet
// sizes. ns/op is per request. The acceptance bar for the caching
// tier: warm-cache per-request cost ≥ 5x below cold.
func BenchmarkFleetFetch(b *testing.B) {
	const cve = "CVE-2014-0196"
	info := OSInfo{Version: "4.4", Ftrace: true, Inline: true}

	for _, tc := range []struct {
		name    string
		clients int
		warm    bool
	}{
		{"cold/clients=1", 1, false},
		{"warm/clients=1", 1, true},
		{"warm/clients=16", 16, true},
		{"warm/clients=64", 64, true},
	} {
		b.Run(tc.name, func(b *testing.B) {
			srv := newBenchServer(b, cve)
			clients := make([]*Client, tc.clients)
			for i := range clients {
				c, err := Dial(srv.Addr())
				if err != nil {
					b.Fatal(err)
				}
				defer c.Close()
				if _, err := c.Hello(info, goodMeasurement(info.Version)); err != nil {
					b.Fatal(err)
				}
				clients[i] = c
			}
			if tc.warm {
				// Prime the cache so every measured request is a hit.
				if _, err := clients[0].FetchPatch(context.Background(), cve); err != nil {
					b.Fatal(err)
				}
			}
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if !tc.warm {
					srv.FlushCache()
				}
				var wg sync.WaitGroup
				errs := make(chan error, len(clients))
				for _, c := range clients {
					wg.Add(1)
					go func(c *Client) {
						defer wg.Done()
						if _, err := c.FetchPatch(context.Background(), cve); err != nil {
							errs <- err
						}
					}(c)
				}
				wg.Wait()
				close(errs)
				for err := range errs {
					b.Fatal(err)
				}
			}
			b.StopTimer()
			// Report per-request, not per-wave: a wave is len(clients)
			// requests.
			perReq := float64(b.Elapsed().Nanoseconds()) / float64(b.N*len(clients))
			b.ReportMetric(perReq, "ns/req")
		})
	}
}

// newBenchServer mirrors newTestServer for benchmarks.
func newBenchServer(b *testing.B, cves ...string) *Server {
	b.Helper()
	entries := make([]*cvebench.Entry, len(cves))
	for i, id := range cves {
		e, ok := cvebench.Get(id)
		if !ok {
			b.Fatalf("unknown CVE %s", id)
		}
		entries[i] = e
	}
	srv, err := New(WithTreeProvider(cvebench.TreeProviderFor(entries...)))
	if err != nil {
		b.Fatal(err)
	}
	b.Cleanup(srv.Close)
	for _, e := range entries {
		srv.RegisterPatch(e.SourcePatch())
	}
	return srv
}
