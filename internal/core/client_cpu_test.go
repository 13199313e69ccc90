package core

import (
	"testing"
	"time"

	"repro/internal/httpclient"
	"repro/internal/httpserver"
	"repro/internal/netem"
)

// TestClientCPUSensitivity is a metamorphic relation over client work.
// Raising the per-response client CPU from 5 to 10 ms must raise a
// serial client's elapsed time by at least 42 × 5 ms: it cannot write
// request n+1 before it has handled response n, so each of the page's
// 43 responses but the last gates the next request. A pipelined client,
// whose requests do not wait on that work, may rise by no more than the
// serial one.
func TestClientCPUSensitivity(t *testing.T) {
	t.Parallel()
	const from, to = 5 * time.Millisecond, 10 * time.Millisecond
	rise := func(mode httpclient.Mode) time.Duration {
		sc := scenario(httpserver.ProfileJigsaw, mode, netem.LAN, httpclient.FirstTime)
		cfg := mode.Config()
		if cfg.PerRequestCPU != from {
			t.Fatalf("%s: default client CPU is %v, the relation is stated from %v", mode, cfg.PerRequestCPU, from)
		}
		base := runOne(t, sc).Elapsed
		cfg.PerRequestCPU = to
		sc.ClientOverride = &cfg
		return runOne(t, sc).Elapsed - base
	}
	serial, pipelined := rise(httpclient.ModeHTTP11Serial), rise(httpclient.ModeHTTP11Pipelined)
	if want := 42 * (to - from); serial < want {
		t.Errorf("serial elapsed rose %v with +%v client CPU per response, want at least %v", serial, to-from, want)
	}
	if pipelined > serial {
		t.Errorf("pipelined elapsed rose %v, more than serial's %v", pipelined, serial)
	}
	t.Logf("elapsed rise: serial %v, pipelined %v", serial, pipelined)
}
