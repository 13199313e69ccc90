// Package repro is a full reproduction of "Network Performance Effects of
// HTTP/1.1, CSS1, and PNG" (Nielsen, Gettys, Baird-Smith, Prud'hommeaux,
// Lie, Lilley — ACM SIGCOMM 1997) as a Go library.
//
// The public experiment API lives in internal/core; the substrates it
// composes are a deterministic discrete-event simulator (internal/sim), a
// TCP model (internal/tcpsim) over parameterized links (internal/netem),
// an HTTP/1.0+1.1 message layer (internal/httpmsg), the paper's client
// and servers (internal/httpclient, internal/httpserver), the Microscape
// test site (internal/webgen), and from-scratch DEFLATE/zlib, LZW,
// GIF, PNG/MNG, HTML, and CSS1 codecs (internal/flatez, internal/lzw,
// internal/gifenc, internal/pngenc, internal/htmlparse, internal/css).
//
// See README.md for a tour, DESIGN.md for the system inventory, and
// EXPERIMENTS.md for paper-versus-measured results. cmd/httpperf
// regenerates every table and figure of the evaluation; bench/ measures
// how fast the simulator does it.
package repro
