package core

import (
	"bytes"
	"runtime"

	"repro/internal/flatez"
	"repro/internal/httpclient"
	"repro/internal/sim"
	"repro/internal/webgen"
)

// Cell is one measured table cell (averaged).
type Cell struct {
	Packets     float64
	Bytes       float64
	Seconds     float64
	OverheadPct float64
}

// Row is one protocol row: first-time retrieval and cache validation.
type Row struct {
	Label        string
	First, Reval Cell
	// Paper holds the published values when available.
	Paper *PaperRow
}

// Table is a regenerated paper table.
type Table struct {
	Number int // paper table number, 0 for extra experiments
	Title  string
	Rows   []Row
}

// Table3Row is one column of the paper's Table 3 (the initial, untuned
// LAN revalidation investigation).
type Table3Row struct {
	Label        string
	MaxSockets   int
	TotalSockets int
	PktsC2S      float64
	PktsS2C      float64
	PktsTotal    float64
	Elapsed      float64
}

// TagCaseRow is one row of the tag-case compression experiment.
type TagCaseRow struct {
	Label     string
	HTMLBytes int
	Deflated  int
	Ratio     float64
}

// TagCaseTable reproduces the paper's observation that markup letter case
// affects deflate performance (lower-case tags compressed to ~0.27 of the
// original vs ~0.35 for mixed case).
func TagCaseTable() ([]TagCaseRow, error) {
	cases := []webgen.TagCase{webgen.TagsLower, webgen.TagsMixed, webgen.TagsUpper}
	rows := make([]TagCaseRow, len(cases))
	err := sim.ForEach(runtime.GOMAXPROCS(0), len(cases), func(i int) error {
		html := webgen.MicroscapeHTML(webgen.Options{Seed: 2, TagCase: cases[i]})
		comp := flatez.Compress(html)
		rows[i] = TagCaseRow{
			Label:     cases[i].String() + "-case tags",
			HTMLBytes: len(html),
			Deflated:  len(comp),
			Ratio:     flatez.Ratio(html, comp),
		}
		return nil
	})
	return rows, err
}

// HeaderRedundancyRow is one request-encoding strategy of the paper's
// compact-wire-representation estimate.
type HeaderRedundancyRow struct {
	Label        string
	RequestBytes int
	Ratio        float64 // versus the plain text encoding
}

// HeaderRedundancy quantifies the paper's back-of-the-envelope claim that
// "HTTP requests are usually highly redundant and the actual number of
// bytes that changes between requests can be as small as 10%", so "a more
// compact wire representation for HTTP could increase pipelining's
// benefit ... up to an additional factor of five or ten" on revalidation
// traffic. It serializes the 43 revalidation requests and compares the
// plain text bytes against deflate with each request compressed using the
// previous one as a preset dictionary (a stand-in for a tokenized
// encoding).
func HeaderRedundancy(site *webgen.Site) ([]HeaderRedundancyRow, error) {
	cache := httpclient.NewCache()
	cache.Prime(site)
	reqs := httpclient.RevalidationRequests(cache)
	plain := 0
	for _, r := range reqs {
		plain += len(r)
	}
	delta := 0
	var prev []byte
	for _, r := range reqs {
		delta += len(flatez.CompressDict(r, prev, 9))
		prev = r
	}
	whole := len(flatez.CompressLevel(bytes.Join(reqs, nil), 9))
	return []HeaderRedundancyRow{
		{"Plain text requests", plain, 1},
		{"Whole-stream deflate", whole, float64(whole) / float64(plain)},
		{"Per-request deflate w. previous-request dictionary", delta, float64(delta) / float64(plain)},
	}, nil
}
