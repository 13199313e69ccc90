package experiments

import (
	"fmt"
	"time"

	"repro/internal/core"
	"repro/internal/exp"
	"repro/internal/httpclient"
	"repro/internal/httpserver"
	"repro/internal/netem"
	"repro/internal/report"
)

// table3 reproduces the initial high-bandwidth low-latency cache
// revalidation test: HTTP/1.0, naive persistent HTTP/1.1, and the first
// pipelined implementation with its untuned 1-second flush timer and no
// explicit application flush. The paper lays it out metrics-as-rows, so
// its result keeps the typed core.Table3Row and report.Table3's layout.
var table3 = experiment{
	name: "3", title: "Table 3 - Initial LAN cache revalidation test",
	tables: []table{{grid: func() core.Grid {
		// The initial HTTP/1.1 robot kept its persistent cache as two files
		// per object on disk; the paper calls this overhead "a performance
		// bottleneck in our HTTP/1.1 tests" (later moved to a memory file
		// system). That slow per-request client work is what made
		// non-pipelined HTTP/1.1 *slower* in elapsed time than HTTP/1.0.
		const initialCacheCPU = 85 * time.Millisecond

		http10 := httpclient.ModeHTTP10.Config()
		http10.MaxConns = 6 // the initial robot ran up to 6 sockets (Table 3)

		serial := httpclient.ModeHTTP11Serial.Config()
		serial.PerRequestCPU = initialCacheCPU

		pipeline := httpclient.ModeHTTP11Pipelined.Config()
		// The initial implementation: flush on size or a 1-second timer only.
		pipeline.ExplicitFirstFlush = false
		pipeline.FlushTimeout = time.Second
		pipeline.PerRequestCPU = initialCacheCPU

		g := core.Grid{Stride: 101}
		for i, v := range []struct {
			label string
			cfg   *httpclient.Config
		}{
			{"HTTP/1.0", &http10},
			{"HTTP/1.1 Persistent", &serial},
			{"HTTP/1.1 Pipeline", &pipeline},
		} {
			sc := cell(httpserver.ProfileJigsaw, v.cfg.Mode, netem.LAN, httpclient.Revalidate, 3000+uint64(i))
			sc.ClientOverride = v.cfg
			g.Rows = append(g.Rows, oneCell(sc, v.label))
		}
		return g
	}()}},
	generate: typed(func(measured []row) any {
		rows := make([]core.Table3Row, len(measured))
		for i, m := range measured {
			runs := m.Results[0]
			maxSockets := 0
			for _, res := range runs {
				maxSockets = max(maxSockets, res.Client.MaxSimultaneousConns)
			}
			rows[i] = core.Table3Row{
				Label:        m.Labels[0].(string),
				MaxSockets:   maxSockets,
				TotalSockets: int(core.Mean(runs, client(func(c *httpclient.Result) int { return c.SocketsUsed }))),
				PktsC2S:      core.Mean(runs, func(res *core.RunResult) float64 { return float64(res.Stats.ClientToServer) }),
				PktsS2C:      core.Mean(runs, func(res *core.RunResult) float64 { return float64(res.Stats.ServerToClient) }),
				PktsTotal:    core.Mean(runs, core.Packets),
				Elapsed:      core.Mean(runs, core.Seconds),
			}
		}
		return rows
	}),
	render: renderWith(report.Table3),
}

// typed is the generate of an experiment whose one grid reduces to a
// typed result instead of a report.Table.
func typed(reduce func([]row) any) func(*exp.Session, *experiment) (any, error) {
	return func(s *exp.Session, e *experiment) (any, error) {
		measured, err := e.sweep(s).Measure(e.tables[0].grid, s.Site)
		if err != nil {
			return nil, err
		}
		return reduce(measured), nil
	}
}

// paperTable configures one of Tables 4-11: a server × environment page,
// its client modes × both workloads.
type paperTable struct {
	number  int
	server  httpserver.Profile
	env     netem.Environment
	title   string // after "Table N - Server - "
	listing string // after "Table N - " in the registry
	modes   []httpclient.Mode
	// client, when set, overrides a cell's mode-derived client
	// configuration.
	client func(httpclient.Mode, httpclient.Workload) *httpclient.Config
}

const (
	lanTitle   = "High Bandwidth, Low Latency"
	wanTitle   = "High Bandwidth, High Latency"
	pppTitle   = "Low Bandwidth, High Latency"
	comparison = "protocol comparison (server × environment)"
	browsers   = "product browsers over PPP"
)

var browserModes = []httpclient.Mode{httpclient.ModeNetscape, httpclient.ModeMSIE}

// Table 10 records IE revalidating very poorly against Jigsaw: connection
// reuse and the page validation did not work, so every validation opened
// a fresh connection and the page came back in full.
func msieAgainstJigsaw(mode httpclient.Mode, wl httpclient.Workload) *httpclient.Config {
	if mode != httpclient.ModeMSIE || wl != httpclient.Revalidate {
		return nil
	}
	cfg := mode.Config()
	cfg.KeepAlive = false
	cfg.RevalidateHTMLUnconditionally = true
	return &cfg
}

// Tables 8 and 9 omit HTTP/1.0, as the paper did.
var paperTableConfigs = []paperTable{
	{4, httpserver.ProfileJigsaw, netem.LAN, lanTitle, comparison, protocolModes, nil},
	{5, httpserver.ProfileApache, netem.LAN, lanTitle, comparison, protocolModes, nil},
	{6, httpserver.ProfileJigsaw, netem.WAN, wanTitle, comparison, protocolModes, nil},
	{7, httpserver.ProfileApache, netem.WAN, wanTitle, comparison, protocolModes, nil},
	{8, httpserver.ProfileJigsaw, netem.PPP, pppTitle, comparison, protocolModes[1:], nil},
	{9, httpserver.ProfileApache, netem.PPP, pppTitle, comparison, protocolModes[1:], nil},
	{10, httpserver.ProfileJigsaw, netem.PPP, "Netscape Navigator and MS Internet Explorer, " + pppTitle, browsers, browserModes, msieAgainstJigsaw},
	{11, httpserver.ProfileApache, netem.PPP, "Netscape Navigator and MS Internet Explorer, " + pppTitle, browsers, browserModes, nil},
}

// paperTables declares Tables 4-11. Their result stays the typed
// core.Table, paper rows attached, which report.MainTable lays out and
// the benchmark's fidelity metrics read.
func paperTables() []experiment {
	var out []experiment
	for _, pt := range paperTableConfigs {
		title := fmt.Sprintf("Table %d - %s - %s", pt.number, pt.server, pt.title)
		g := core.Grid{Stride: 7919}
		for i, mode := range pt.modes {
			r := core.GridRow{Labels: []any{mode.String()}}
			for _, wl := range bothWorkloads {
				sc := cell(pt.server, mode, pt.env, wl, uint64(pt.number)*1000+uint64(i))
				if pt.client != nil {
					sc.ClientOverride = pt.client(mode, wl)
				}
				r.Cells = append(r.Cells, sc)
			}
			g.Rows = append(g.Rows, r)
		}
		out = append(out, experiment{
			name: fmt.Sprint(pt.number), title: fmt.Sprintf("Table %d - %s", pt.number, pt.listing),
			tables: []table{{grid: g}},
			generate: typed(func(measured []row) any {
				t := core.Table{Number: pt.number, Title: title}
				paper := core.PaperTables[pt.number]
				for i, m := range measured {
					r := core.Row{
						Label: m.Labels[0].(string),
						First: core.Average(m.Results[0]).Cell,
						Reval: core.Average(m.Results[1]).Cell,
					}
					if i < len(paper) {
						p := paper[i]
						r.Paper = &p
					}
					t.Rows = append(t.Rows, r)
				}
				return t
			}),
			render: renderWith(report.MainTable),
		})
	}
	return out
}
