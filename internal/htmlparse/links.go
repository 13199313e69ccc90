package htmlparse

import (
	"bytes"
	"strings"
)

// LinkKind classifies an embedded or referenced resource.
type LinkKind int

// Link kinds.
const (
	// Inline resources, fetched automatically by a browser:
	LinkImage      LinkKind = iota // <img src>, <input type=image src>
	LinkBackground                 // <body background>
	LinkStylesheet                 // <link rel=stylesheet href>
	LinkScript                     // <script src>
	LinkFrame                      // <frame src>, <iframe src>
	// Navigational, fetched on user action:
	LinkAnchor // <a href>
)

// String names the kind.
func (k LinkKind) String() string {
	switch k {
	case LinkImage:
		return "image"
	case LinkBackground:
		return "background"
	case LinkStylesheet:
		return "stylesheet"
	case LinkScript:
		return "script"
	case LinkFrame:
		return "frame"
	case LinkAnchor:
		return "anchor"
	}
	return "unknown"
}

// Inline reports whether a browser fetches this kind automatically while
// rendering the page.
func (k LinkKind) Inline() bool { return k != LinkAnchor }

// Link is one discovered reference.
type Link struct {
	URL  string
	Kind LinkKind
}

// LinkExtractor finds resource references in a streamed HTML document.
// Duplicate URLs of the same kind are reported once, like a browser's
// fetch queue.
type LinkExtractor struct {
	z    scanner
	seen map[Link]bool

	// While armed (index set), the bytes fed so far are the first
	// verified bytes of the index's page, and Feed has returned its first
	// replayed links.
	index              *PageIndex
	verified, replayed int
}

// Feed consumes HTML bytes and returns newly discovered links in document
// order. An armed extractor may return a slice it shares with its index;
// callers must not modify it.
func (e *LinkExtractor) Feed(data []byte) []Link {
	if x := e.index; x != nil {
		end := e.verified + len(data)
		if end <= len(x.page) && bytes.Equal(data, x.page[e.verified:end]) {
			return e.replay(end)
		}
		// The first chunk that is not the page's: become the extractor
		// that scanned the verified prefix, and scan from here on.
		e.index = nil
		e.scan(x.page[:e.verified])
	}
	return e.scan(data)
}

// scan runs the scanner over data and returns the new links it completes.
func (e *LinkExtractor) scan(data []byte) []Link {
	e.z.push(data)
	var out []Link
	for {
		typ, raw, ok := e.z.next()
		if !ok {
			e.z.compact()
			return out
		}
		if typ == StartTag {
			out = e.extract(raw, out)
		}
	}
}

// linkTags are the elements that can carry a link, with the attribute
// that holds it. Only their start tags have their attributes parsed;
// everything else in the document is skipped at the scanner's cost.
var linkTags = [...]struct {
	tag, attr string
	kind      LinkKind
}{
	{"img", "src", LinkImage},
	{"input", "src", LinkImage}, // type=image only
	{"body", "background", LinkBackground},
	{"link", "href", LinkStylesheet}, // rel=stylesheet only
	{"script", "src", LinkScript},
	{"frame", "src", LinkFrame},
	{"iframe", "src", LinkFrame},
	{"a", "href", LinkAnchor},
}

func (e *LinkExtractor) extract(raw []byte, out []Link) []Link {
	name, rest := tagName(raw)
	for _, lt := range linkTags {
		if !lowerIs(name, lt.tag) {
			continue
		}
		attrs := string(rest)
		if lt.tag == "input" && !lowerIs(attrValue(attrs, "type"), "image") ||
			lt.tag == "link" && !lowerIs(attrValue(attrs, "rel"), "stylesheet") {
			return out
		}
		link := Link{URL: attrValue(attrs, lt.attr), Kind: lt.kind}
		if link.URL == "" || e.seen[link] {
			return out
		}
		if e.seen == nil {
			e.seen = make(map[Link]bool)
		}
		e.seen[link] = true
		return append(out, link)
	}
	return out
}

// attrValue returns the entity-decoded value of the first attribute
// called name (given in lower case) in a start tag's attribute text, or
// "" when there is none.
func attrValue(attrs, name string) string {
	for {
		attr, value, rest := nextAttr(attrs)
		if attr == "" {
			return ""
		}
		if lowerIs(attr, name) {
			return DecodeEntities(value)
		}
		attrs = rest
	}
}

// lowerIs reports whether strings.ToLower(s) == lower, without
// allocating when s is ASCII.
func lowerIs[T string | []byte](s T, lower string) bool {
	for i := 0; i < len(s); i++ {
		if s[i] >= 0x80 {
			// Beyond ASCII, ToLower can map onto an ASCII letter (the
			// Kelvin sign) and rewrites invalid UTF-8.
			return strings.ToLower(string(s)) == lower
		}
	}
	if len(s) != len(lower) {
		return false
	}
	for i := 0; i < len(s); i++ {
		c := s[i]
		if 'A' <= c && c <= 'Z' {
			c += 'a' - 'A'
		}
		if c != lower[i] {
			return false
		}
	}
	return true
}
