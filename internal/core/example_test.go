package core_test

import (
	"fmt"
	"log"

	"repro/internal/core"
	"repro/internal/httpclient"
	"repro/internal/httpserver"
	"repro/internal/netem"
)

// Fetch the Microscape page once with HTTP/1.0 and once with pipelined
// HTTP/1.1 over the simulated WAN, and print the paper's core
// comparison: packets, bytes, elapsed time. Pipelined HTTP/1.1 fetches
// the same page with a fraction of the packets on a single connection,
// the paper's headline result.
func ExampleRun() {
	site, err := core.DefaultSite()
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("Microscape: %d objects, %d bytes (HTML %d + images %d)\n\n",
		site.ObjectCount(), site.TotalBytes(), len(site.HTML.Body),
		site.StaticImageBytes()+site.AnimationBytes())

	for _, mode := range []httpclient.Mode{httpclient.ModeHTTP10, httpclient.ModeHTTP11Pipelined} {
		sc := core.Scenario{
			Server:   httpserver.ProfileApache,
			Client:   mode,
			Env:      netem.WAN,
			Workload: httpclient.FirstTime,
			Seed:     1,
		}
		res, err := core.Run(sc, site)
		if err != nil {
			log.Fatal(err)
		}
		fmt.Printf("%-34s %4d packets  %7d bytes  %6.2fs  (%d connections)\n",
			mode, res.Stats.Packets, res.Stats.PayloadBytes,
			res.Elapsed.Seconds(), res.Client.SocketsUsed)
	}
	// Output:
	// Microscape: 43 objects, 169236 bytes (HTML 41812 + images 127424)
	//
	// HTTP/1.0                            520 packets   193931 bytes    3.32s  (43 connections)
	// HTTP/1.1 Pipelined                  198 packets   181633 bytes    1.52s  (1 connections)
}
