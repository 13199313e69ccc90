package core

import (
	"fmt"
	"strings"

	"repro/internal/faults"
	"repro/internal/httpclient"
	"repro/internal/httpserver"
	"repro/internal/netem"
)

// ParseServerProfile maps a command-line name to a server profile.
// Accepted (case-insensitive): jigsaw, apache.
func ParseServerProfile(s string) (httpserver.Profile, error) {
	switch strings.ToLower(s) {
	case "jigsaw":
		return httpserver.ProfileJigsaw, nil
	case "apache":
		return httpserver.ProfileApache, nil
	}
	return 0, fmt.Errorf("unknown server profile %q (want jigsaw or apache)", s)
}

// ParseClientMode maps a command-line name to a client mode. Accepted
// (case-insensitive): http10, serial, pipelined, deflate, netscape,
// msie, mux, mux-push, burst.
func ParseClientMode(s string) (httpclient.Mode, error) {
	switch strings.ToLower(s) {
	case "http10":
		return httpclient.ModeHTTP10, nil
	case "serial":
		return httpclient.ModeHTTP11Serial, nil
	case "pipelined":
		return httpclient.ModeHTTP11Pipelined, nil
	case "deflate":
		return httpclient.ModeHTTP11PipelinedDeflate, nil
	case "netscape":
		return httpclient.ModeNetscape, nil
	case "msie":
		return httpclient.ModeMSIE, nil
	case "mux":
		return httpclient.ModeMux, nil
	case "mux-push", "muxpush", "push":
		return httpclient.ModeMuxPush, nil
	case "burst":
		return httpclient.ModeBurst, nil
	}
	return 0, fmt.Errorf("unknown client mode %q (want http10, serial, pipelined, deflate, netscape, msie, mux, mux-push, or burst)", s)
}

// ParseEnvironment maps a command-line name to a network environment.
// Accepted (case-insensitive): LAN, WAN, PPP.
func ParseEnvironment(s string) (netem.Environment, error) {
	switch strings.ToUpper(s) {
	case "LAN":
		return netem.LAN, nil
	case "WAN":
		return netem.WAN, nil
	case "PPP":
		return netem.PPP, nil
	}
	return 0, fmt.Errorf("unknown environment %q (want LAN, WAN, or PPP)", s)
}

// ParseWorkload maps a command-line name to a workload. Accepted
// (case-insensitive): first, reval (or revalidate).
func ParseWorkload(s string) (httpclient.Workload, error) {
	switch strings.ToLower(s) {
	case "first":
		return httpclient.FirstTime, nil
	case "reval", "revalidate":
		return httpclient.Revalidate, nil
	}
	return 0, fmt.Errorf("unknown workload %q (want first or reval)", s)
}

// ParseTopology maps a command-line topology spec onto a scenario's
// proxy configuration: nil for "direct", or a ProxyScenario for
// "proxy:ENV[:warm|:stale]" — e.g. "proxy:WAN" (cold shared cache),
// "proxy:WAN:warm" (site cached and fresh), "proxy:WAN:stale" (cached
// earlier, expired, revalidates upstream).
func ParseTopology(s string) (*ProxyScenario, error) {
	if strings.EqualFold(s, "direct") || s == "" {
		return nil, nil
	}
	parts := strings.Split(s, ":")
	if !strings.EqualFold(parts[0], "proxy") || len(parts) < 2 || len(parts) > 3 {
		return nil, fmt.Errorf("unknown topology %q (want direct or proxy:ENV[:warm|:stale], e.g. proxy:WAN:warm)", s)
	}
	env, err := ParseEnvironment(parts[1])
	if err != nil {
		return nil, err
	}
	p := &ProxyScenario{Env: env}
	if len(parts) == 3 {
		switch strings.ToLower(parts[2]) {
		case "warm":
			p.Warm = true
		case "stale":
			p.Stale = true
		default:
			return nil, fmt.Errorf("unknown cache state %q in topology %q (want warm or stale)", parts[2], s)
		}
	}
	return p, nil
}

// ParseScenario parses a
// "server/client/env/workload[/fifo][/nagle][/topology][/fault]" spec —
// e.g. "apache/pipelined/PPP/first",
// "apache/pipelined/PPP/first/proxy:WAN:warm",
// "apache/mux/PPP/first/fifo", "jigsaw/serial/WAN/first/nagle", or
// "apache/pipelined/WAN/first/early-close" — into a Scenario with zero
// seed and no jitter. The optional "fifo" part (mux modes only)
// switches the stream scheduler to first-come-first-served; "nagle"
// leaves the server's Nagle algorithm on, the paper's untuned
// configuration, and does not show in Scenario.String. The next
// optional part is either a ParseTopology spec interposing a shared
// caching proxy or a faults.Profile name; when both are given the
// topology comes first and the fault last.
func ParseScenario(spec string) (Scenario, error) {
	parts := strings.Split(spec, "/")
	if len(parts) < 4 || len(parts) > 8 {
		return Scenario{}, fmt.Errorf(
			"scenario %q: want server/client/env/workload[/fifo][/nagle][/topology][/fault] — server: jigsaw|apache; client: http10|serial|pipelined|deflate|netscape|msie|mux|mux-push|burst; env: LAN|WAN|PPP; workload: first|reval; topology: direct|proxy:ENV[:warm|:stale]; fault: %s",
			spec, strings.Join(faults.Names(), "|"))
	}
	var sc Scenario
	var err error
	if sc.Server, err = ParseServerProfile(parts[0]); err != nil {
		return Scenario{}, err
	}
	if sc.Client, err = ParseClientMode(parts[1]); err != nil {
		return Scenario{}, err
	}
	if sc.Env, err = ParseEnvironment(parts[2]); err != nil {
		return Scenario{}, err
	}
	if sc.Workload, err = ParseWorkload(parts[3]); err != nil {
		return Scenario{}, err
	}
	rest := parts[4:]
	if len(rest) > 0 && strings.EqualFold(rest[0], "fifo") {
		sc.MuxFIFO = true
		rest = rest[1:]
	}
	if len(rest) > 0 && strings.EqualFold(rest[0], "nagle") {
		// Run sets TCP_NODELAY on the server unless an override is
		// present; an override with NoDelay unset puts Nagle back.
		sc.ServerOverride = &httpserver.Config{Profile: sc.Server}
		rest = rest[1:]
	}
	if len(rest) > 2 {
		return Scenario{}, fmt.Errorf("scenario %q: too many parts after the workload (want [/fifo][/nagle][/topology][/fault])", spec)
	}
	if len(rest) >= 1 {
		if f, ferr := faults.Parse(rest[0]); ferr == nil {
			if len(rest) == 2 {
				return Scenario{}, fmt.Errorf("scenario %q: fault profile %q must be the final part", spec, rest[0])
			}
			sc.Fault = f
		} else if sc.Proxy, err = ParseTopology(rest[0]); err != nil {
			return Scenario{}, fmt.Errorf(
				"scenario part %q is neither a topology (direct|proxy:ENV[:warm|:stale]) nor a fault profile (%s)",
				rest[0], strings.Join(faults.Names(), "|"))
		}
	}
	if len(rest) == 2 {
		if sc.Fault, err = faults.Parse(rest[1]); err != nil {
			return Scenario{}, err
		}
	}
	return sc, nil
}
