package htmlparse_test

import (
	"fmt"
	"reflect"
	"strings"
	"testing"

	"repro/internal/htmlparse"
	"repro/internal/webgen"
)

// differ feeds the same chunks to the scanner-based Tokenizer and
// LinkExtractor and to the oracle, and demands the same output from
// every Feed call: when a link is discovered is visible to the
// simulation, so agreement over the whole document is not enough.
type differ struct {
	ex  htmlparse.LinkExtractor
	tok htmlparse.Tokenizer
	oex htmlparse.OracleExtractor
	otk htmlparse.OracleTokenizer
	// linksOnly skips the Tokenizer comparison, which materialises
	// every token twice and is most of the cost of a pass.
	linksOnly bool
}

func (d *differ) feed(chunk []byte) error {
	links, want := d.ex.Feed(chunk), d.oex.Feed(chunk)
	if !reflect.DeepEqual(links, want) {
		return fmt.Errorf("links %v, oracle %v", links, want)
	}
	if got, want := d.ex.Buffered(), d.oex.Buffered(); got != want {
		return fmt.Errorf("extractor holds %d bytes, oracle %d", got, want)
	}
	if d.linksOnly {
		return nil
	}
	toks, wantToks := d.tok.Feed(chunk), d.otk.Feed(chunk)
	if !reflect.DeepEqual(toks, wantToks) {
		return fmt.Errorf("tokens %+v, oracle %+v", toks, wantToks)
	}
	if got, want := d.tok.Buffered(), d.otk.Buffered(); got != want {
		return fmt.Errorf("tokenizer holds %d bytes, oracle %d", got, want)
	}
	return nil
}

// feedCuts feeds doc cut after every offset in cuts (ascending).
func (d *differ) feedCuts(doc []byte, cuts ...int) error {
	prev := 0
	for _, c := range append(cuts, len(doc)) {
		if c > len(doc) {
			c = len(doc)
		}
		if err := d.feed(doc[prev:c]); err != nil {
			return fmt.Errorf("chunk [%d:%d]: %w", prev, c, err)
		}
		prev = c
	}
	if got, want := d.tok.Flush(), d.otk.Flush(); !reflect.DeepEqual(got, want) {
		return fmt.Errorf("Flush %+v, oracle %+v", got, want)
	}
	return nil
}

// oraclePages are the documents the simulator actually parses: the
// Microscape page in each tag case, its CSS-ified variant and a revision.
func oraclePages(t *testing.T) map[string][]byte {
	t.Helper()
	pages := map[string][]byte{
		"lower": webgen.MicroscapeHTML(webgen.Options{TagCase: webgen.TagsLower}),
		"mixed": webgen.MicroscapeHTML(webgen.Options{TagCase: webgen.TagsMixed}),
		"upper": webgen.MicroscapeHTML(webgen.Options{TagCase: webgen.TagsUpper}),
	}
	if testing.Short() {
		return pages
	}
	site, err := webgen.Microscape(webgen.Options{})
	if err != nil {
		t.Fatal(err)
	}
	cssified, err := site.CSSified(webgen.Options{})
	if err != nil {
		t.Fatal(err)
	}
	revised, err := site.Revise(0.3, 7)
	if err != nil {
		t.Fatal(err)
	}
	pages["cssified"] = cssified.HTML.Body
	pages["revised"] = revised.HTML.Body
	return pages
}

func TestLinkExtractorMatchesOracle(t *testing.T) {
	// The sliding two-cut: a pass cuts the page at o, o+w, o+period,
	// o+period+w, ... and the passes take every o below period, so every
	// byte boundary of the page is a cut in some pass, followed by a
	// second cut w bytes on (w cycles through 1..7, inside most tags),
	// with the whole page's dedup state around it. Cutting the page in
	// two at each of its 42 000 boundaries separately would cost the
	// same page parse 42 000 times over. Every eighth pass compares the
	// Tokenizer's tokens as well as the links.
	const period = 97
	for name, page := range oraclePages(t) {
		var mss []int
		for c := 1460; c < len(page); c += 1460 {
			mss = append(mss, c)
		}
		if err := new(differ).feedCuts(page, mss...); err != nil {
			t.Errorf("%s, 1460-byte chunks: %v", name, err)
		}
		for o := 0; o < period; o++ {
			w := 1 + o%7
			var cuts []int
			for c := o; c < len(page); c += period {
				cuts = append(cuts, c, c+w)
			}
			d := differ{linksOnly: o%8 != 0}
			if err := d.feedCuts(page, cuts...); err != nil {
				t.Errorf("%s, two-cut at %d+k*%d, width %d: %v", name, o, period, w, err)
				break
			}
		}
	}
}

// splitSeeds are documents that reach the scanner's corners: comments
// closed by their own opener, quoted '>', stray '=', unterminated
// everything, and names only Unicode lower-casing maps onto ASCII.
var splitSeeds = []string{
	`<html><head><link rel="STYLESHEET" href="/style.css"><script src="/app.js"></script></head>` +
		`<body background="/bg.gif"><img src="/images/a.gif"><IMG SRC='/images/a.gif'>` +
		`<input type=image src="/images/submit.gif"><iframe src="/inner.html"></iframe>` +
		`<a href="/search?q=x&amp;page=2">x</a></body></html>`,
	`<!DOCTYPE HTML PUBLIC "-//W3C//DTD HTML 3.2//EN"><!-- hidden <img src=x.gif> -->text`,
	`<!--><img src=a><!---><img src=b><!-- - -- --><img src=c>`,
	`<!-`, `<!->`, `<!`, `<`, `</`, `< img src=x>`, `<<img src=x>`,
	`<a href="x?a>b">link</a><img src=unterminated "quote>`,
	`<img = src = "a.gif" alt=>x<img src=a.gif/><img/ src=b.gif>`,
	`<img src="no closing quote>`,
	"<IMG\tSRC\n=\r\n'/a.gif'\t>", "<img\vsrc=a> <img src=b >",
	"<lin\u212a rel=stylesheet href=k.css><\u0130mg src=i.gif><img \u0130src=x SRC=y>",
	"<link rel=STYLE\u017fHEET href=long-s.css><link rel=StyleSheet href=s.css>",
	"<img src=\xff\xfe><\xffimg src=x>",
	`plain text, never a tag`,
	`<INPUT TYPE=IMAGE SRC=a.gif><Input Type="Image" src=b.gif><input type=text src=c.gif>`,
}

func FuzzLinkExtractorSplit(f *testing.F) {
	for _, s := range splitSeeds {
		f.Add([]byte(s), []byte{})
		f.Add([]byte(s), []byte{1})
		f.Add([]byte(s), []byte{3, 0, 7, 2})
	}
	f.Fuzz(func(t *testing.T, doc, cuts []byte) {
		// Each byte of cuts is the length of the next chunk; what is
		// left goes in as the last one.
		var at []int
		off := 0
		for _, n := range cuts {
			off += int(n)
			at = append(at, off)
		}
		if err := new(differ).feedCuts(doc, at...); err != nil {
			t.Fatal(err)
		}
	})
}

func TestSeedsMatchOracleAtEverySplit(t *testing.T) {
	for _, s := range splitSeeds {
		doc := []byte(s)
		for i := 0; i <= len(doc); i++ {
			for _, w := range []int{0, 1, 2, 5} {
				if err := new(differ).feedCuts(doc, i, i+w); err != nil {
					t.Fatalf("%q cut at %d and %d: %v", s, i, i+w, err)
				}
			}
		}
	}
}

// The tokenizer used to slice buf[4:end] for a comment closed by its own
// opener and panic; such comments are empty.
func TestAbruptlyClosedComment(t *testing.T) {
	for _, doc := range []string{`<!--><img src=a.gif>`, `<!---><img src=a.gif>`} {
		var z htmlparse.Tokenizer
		toks := z.Feed([]byte(doc))
		if len(toks) != 2 || toks[0].Type != htmlparse.Comment || toks[0].Data != "" || toks[1].Data != "img" {
			t.Errorf("%q: tokens %+v, want an empty comment and the img tag", doc, toks)
		}
		var e htmlparse.LinkExtractor
		if links := e.Feed([]byte(doc)); len(links) != 1 || links[0].URL != "a.gif" {
			t.Errorf("%q: links %v", doc, links)
		}
	}
}

func TestFeedSteadyStateAllocs(t *testing.T) {
	// Complete tokens, none of them a start tag that can carry a link:
	// nothing is materialised and the buffer does not grow.
	chunk := []byte(strings.Repeat(`<tr><td align="center" width=90><font size=2 face="arial,helvetica">`+
		`some nav text</font><br><!-- note --></td></tr>`+"\n", 12))
	var e htmlparse.LinkExtractor
	e.Feed(chunk)
	if n := testing.AllocsPerRun(100, func() {
		if links := e.Feed(chunk); len(links) != 0 {
			t.Fatalf("links %v from a chunk with none", links)
		}
	}); n != 0 {
		t.Errorf("Feed allocates %v times per call in steady state, want 0", n)
	}
}
