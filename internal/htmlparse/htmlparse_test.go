package htmlparse

import (
	"bytes"
	"fmt"
	"strings"
	"testing"
	"testing/quick"
)

func tokenizeAll(t *testing.T, html string) []Token {
	t.Helper()
	var z Tokenizer
	toks := z.Feed([]byte(html))
	return append(toks, z.Flush()...)
}

func TestBasicTokens(t *testing.T) {
	toks := tokenizeAll(t, `<HTML><BODY bgcolor="#ffffff">Hello<!-- c --><BR>bye</BODY></HTML>`)
	var kinds []TokenType
	for _, tok := range toks {
		kinds = append(kinds, tok.Type)
	}
	want := []TokenType{StartTag, StartTag, Text, Comment, StartTag, Text, EndTag, EndTag}
	if len(kinds) != len(want) {
		t.Fatalf("got %d tokens %v, want %d", len(kinds), kinds, len(want))
	}
	for i := range want {
		if kinds[i] != want[i] {
			t.Fatalf("token %d type %v, want %v", i, kinds[i], want[i])
		}
	}
	if toks[0].Data != "html" {
		t.Fatalf("tag name %q not lower-cased", toks[0].Data)
	}
	if v, ok := toks[1].Attr("bgcolor"); !ok || v != "#ffffff" {
		t.Fatalf("bgcolor attr = %q, %v", v, ok)
	}
}

func TestAttributeForms(t *testing.T) {
	toks := tokenizeAll(t, `<img SRC=/images/a.gif WIDTH=90 height="30" alt='a b' ismap>`)
	if len(toks) != 1 {
		t.Fatalf("got %d tokens", len(toks))
	}
	tok := toks[0]
	cases := map[string]string{"src": "/images/a.gif", "width": "90", "height": "30", "alt": "a b"}
	for name, want := range cases {
		if v, ok := tok.Attr(name); !ok || v != want {
			t.Errorf("attr %s = %q (%v), want %q", name, v, ok, want)
		}
	}
	if _, ok := tok.Attr("ismap"); !ok {
		t.Error("boolean attribute lost")
	}
}

func TestQuotedGreaterThan(t *testing.T) {
	toks := tokenizeAll(t, `<a href="x?a>b">link</a>`)
	if len(toks) != 3 {
		t.Fatalf("got %d tokens, want 3", len(toks))
	}
	if v, _ := toks[0].Attr("href"); v != "x?a>b" {
		t.Fatalf("href = %q, quoted '>' mishandled", v)
	}
}

func TestDeclAndComment(t *testing.T) {
	toks := tokenizeAll(t, `<!DOCTYPE HTML PUBLIC "-//W3C//DTD HTML 3.2//EN"><!-- hidden <img src=x.gif> -->text`)
	if toks[0].Type != Decl {
		t.Fatalf("first token %v, want Decl", toks[0].Type)
	}
	if toks[1].Type != Comment || !strings.Contains(toks[1].Data, "img") {
		t.Fatalf("comment mishandled: %+v", toks[1])
	}
	if toks[2].Type != Text || toks[2].Data != "text" {
		t.Fatalf("trailing text mishandled: %+v", toks[2])
	}
}

func TestIncrementalAnySplit(t *testing.T) {
	html := `<html><head><title>T</title></head><body background="/bg.gif">` +
		`<img src="/images/img1.gif" width=10><p>para one</p>` +
		`<IMG SRC='/images/img2.gif'><a href="/next.html">go</a></body></html>`
	whole := tokenizeAll(t, html)
	for _, chunk := range []int{1, 3, 7, 16} {
		var z Tokenizer
		var got []Token
		for off := 0; off < len(html); off += chunk {
			end := off + chunk
			if end > len(html) {
				end = len(html)
			}
			got = append(got, z.Feed([]byte(html[off:end]))...)
		}
		got = append(got, z.Flush()...)
		// Text tokens may split differently; compare tag streams.
		tags := func(toks []Token) []string {
			var out []string
			for _, tok := range toks {
				if tok.Type == StartTag || tok.Type == EndTag {
					out = append(out, fmt.Sprintf("%d:%s", tok.Type, tok.Data))
				}
			}
			return out
		}
		a, b := tags(whole), tags(got)
		if len(a) != len(b) {
			t.Fatalf("chunk %d: %d tags vs %d", chunk, len(b), len(a))
		}
		for i := range a {
			if a[i] != b[i] {
				t.Fatalf("chunk %d: tag %d = %s, want %s", chunk, i, b[i], a[i])
			}
		}
	}
}

func TestLinkExtractorKinds(t *testing.T) {
	html := `<html><head>
	<link rel="STYLESHEET" href="/style.css">
	<script src="/app.js"></script>
	</head><body background="/bg.gif">
	<img src="/images/a.gif"><img src="/images/b.gif">
	<input type=image src="/images/submit.gif">
	<INPUT TYPE=IMAGE SRC="/images/SUBMIT.GIF">
	<input type=text src="/images/not-an-image.gif">
	<iframe src="/inner.html"></iframe>
	<a href="/away.html">x</a>
	</body></html>`
	var e LinkExtractor
	links := e.Feed([]byte(html))
	byKind := map[LinkKind][]string{}
	for _, l := range links {
		byKind[l.Kind] = append(byKind[l.Kind], l.URL)
	}
	if got := byKind[LinkImage]; len(got) != 4 || got[3] != "/images/SUBMIT.GIF" {
		t.Fatalf("images = %v, want 4, the upper-case input last", got)
	}
	if got := byKind[LinkStylesheet]; len(got) != 1 || got[0] != "/style.css" {
		t.Fatalf("stylesheets = %v", got)
	}
	if got := byKind[LinkScript]; len(got) != 1 {
		t.Fatalf("scripts = %v", got)
	}
	if got := byKind[LinkBackground]; len(got) != 1 {
		t.Fatalf("backgrounds = %v", got)
	}
	if got := byKind[LinkFrame]; len(got) != 1 {
		t.Fatalf("frames = %v", got)
	}
	if got := byKind[LinkAnchor]; len(got) != 1 {
		t.Fatalf("anchors = %v", got)
	}
	if LinkAnchor.Inline() {
		t.Fatal("anchors must not be inline")
	}
	if !LinkImage.Inline() {
		t.Fatal("images must be inline")
	}
}

func TestLinkExtractorDeduplicates(t *testing.T) {
	html := strings.Repeat(`<img src="/images/bullet.gif">`, 10)
	var e LinkExtractor
	links := e.Feed([]byte(html))
	if len(links) != 1 {
		t.Fatalf("got %d links for repeated image, want 1", len(links))
	}
}

func TestLinkExtractorIncremental(t *testing.T) {
	// Simulates the paper's scenario: links become available as segments
	// arrive, before the document is complete.
	html := `<html><body><img src="/images/one.gif"><img src="/images/two.gif">` +
		strings.Repeat("<p>filler</p>", 100) +
		`<img src="/images/three.gif"></body></html>`
	var e LinkExtractor
	first := e.Feed([]byte(html[:60]))
	if len(first) != 1 || first[0].URL != "/images/one.gif" {
		t.Fatalf("first chunk links = %v, want just one.gif", first)
	}
	rest := e.Feed([]byte(html[60:]))
	if len(rest) != 2 {
		t.Fatalf("rest links = %v, want two more", rest)
	}
}

func TestLinkKindStrings(t *testing.T) {
	for k := LinkImage; k <= LinkAnchor; k++ {
		if k.String() == "unknown" {
			t.Errorf("kind %d has no name", k)
		}
	}
	if LinkKind(99).String() != "unknown" {
		t.Error("unknown kind misnamed")
	}
}

// Property: the tokenizer never drops tag tokens regardless of chunking.
func TestPropertySplitInvariance(t *testing.T) {
	base := `<body><img src="/images/x.gif" alt="a"><table><tr><td>cell</td></tr></table><a href="/y">z</a></body>`
	wantTags := 0
	{
		var z Tokenizer
		for _, tok := range z.Feed([]byte(base)) {
			if tok.Type == StartTag || tok.Type == EndTag {
				wantTags++
			}
		}
	}
	f := func(seed uint16) bool {
		var z Tokenizer
		var count int
		s := int(seed)
		for off := 0; off < len(base); {
			n := s%13 + 1
			s = (s*31 + 7) % 104729
			if off+n > len(base) {
				n = len(base) - off
			}
			for _, tok := range z.Feed([]byte(base[off : off+n])) {
				if tok.Type == StartTag || tok.Type == EndTag {
					count++
				}
			}
			off += n
		}
		return count == wantTags
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Fatal(err)
	}
}

func TestFlushEmitsTrailingText(t *testing.T) {
	var z Tokenizer
	if got := z.Feed([]byte("no tags here")); len(got) != 0 {
		t.Fatalf("text emitted early: %v", got)
	}
	toks := z.Flush()
	if len(toks) != 1 || toks[0].Data != "no tags here" {
		t.Fatalf("Flush = %v", toks)
	}
	if z.Flush() != nil {
		t.Fatal("second Flush not empty")
	}
}

func TestDecodeEntities(t *testing.T) {
	cases := map[string]string{
		"":                      "",
		"plain text":            "plain text",
		"a &amp; b":             "a & b",
		"&lt;tag&gt;":           "<tag>",
		"&quot;quoted&quot;":    `"quoted"`,
		"&#65;&#66;&#67;":       "ABC",
		"&#x41;&#X42;":          "AB",
		"caf&eacute;":           "café",
		"&unknown; stays":       "&unknown; stays",
		"&amp":                  "&amp", // unterminated
		"&;":                    "&;",
		"100&#37; &copy; 1997":  "100% © 1997",
		"x&#0;y":                "x&#0;y", // NUL rejected
		"deep &amp;amp; nested": "deep &amp; nested",
	}
	for in, want := range cases {
		if got := DecodeEntities(in); got != want {
			t.Errorf("DecodeEntities(%q) = %q, want %q", in, got, want)
		}
	}
}

func TestAttributeEntitiesDecoded(t *testing.T) {
	toks := tokenizeAll(t, `<a href="/search?q=x&amp;page=2">x</a>`)
	if v, _ := toks[0].Attr("href"); v != "/search?q=x&page=2" {
		t.Fatalf("href = %q, entities not decoded", v)
	}
}

// A token that stays incomplete is searched for its end once, not once
// per Feed: the bytes the scanner examines are those from its resume
// offset to the end of the buffer, and over a 1 MB stalled token fed in
// segment-sized chunks they must add up to the input plus a few bytes of
// overlap per Feed, where a rescan from offset 0 adds up to ≈360 MB.
func TestStalledTokenScansLinearly(t *testing.T) {
	const total, chunk = 1 << 20, 1460
	stalled := map[string]string{
		"text":      "no markup at all ",
		"comment":   "<!-- never closed - -- ",
		"decl":      "<!DOCTYPE never closed ",
		"end tag":   "</never closed ",
		"start tag": `<img alt="never closed > `,
	}
	for name, open := range stalled {
		doc := append([]byte(open), bytes.Repeat([]byte("x-"), total/2)...)
		var e LinkExtractor
		examined := 0
		feeds := 0
		for off := 0; off < len(doc); off += chunk {
			end := min(off+chunk, len(doc))
			from := e.z.seen
			if links := e.Feed(doc[off:end]); len(links) != 0 {
				t.Fatalf("%s: links %v from an unterminated token", name, links)
			}
			examined += len(e.z.buf) - from
			feeds++
		}
		if len(e.z.buf) != len(doc) {
			t.Fatalf("%s: %d of %d bytes retained", name, len(e.z.buf), len(doc))
		}
		if limit := len(doc) + 4*feeds; examined > limit {
			t.Errorf("%s: examined %d bytes of a %d-byte token over %d feeds, want at most %d",
				name, examined, len(doc), feeds, limit)
		}
	}
}
