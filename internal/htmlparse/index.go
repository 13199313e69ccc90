package htmlparse

import "bytes"

// PageIndex records what a LinkExtractor finds in one document: every
// link it reports, in order, with the document offset just past the '>'
// that completes the link's tag. The scanner reports a start tag as soon
// as its '>' arrives, so the links an extractor has reported after the
// first n bytes of the document, however they were cut, are exactly
// those indexed with an end offset ≤ n. An extractor armed with the
// index (Arm) replays it instead of scanning for as long as the bytes it
// is fed are the document's.
type PageIndex struct {
	page   []byte
	links  []Link
	ends   []int
	inline []string
}

// IndexPage indexes page, which must not be modified afterwards. It runs
// a LinkExtractor over the page in pieces that each end just after a
// '>': a tag completes only at its '>', so every link a piece reports
// ends where the piece does.
func IndexPage(page []byte) *PageIndex {
	x := &PageIndex{page: page}
	var e LinkExtractor
	for off := 0; off < len(page); {
		n := bytes.IndexByte(page[off:], '>')
		if n < 0 {
			break // no tag can complete without a '>'
		}
		end := off + n + 1
		for _, l := range e.Feed(page[off:end]) {
			x.links = append(x.links, l)
			x.ends = append(x.ends, end)
			if l.Kind.Inline() {
				x.inline = append(x.inline, l.URL)
			}
		}
		off = end
	}
	return x
}

// InlineURLs lists the URLs of the page's inline links in document
// order. The slice is shared and must not be modified.
func (x *PageIndex) InlineURLs() []string { return x.inline }

// Arm restarts e as a fresh extractor armed with x; a nil x leaves it
// unarmed. While every chunk it is fed continues x's page, Feed checks
// the bytes and returns the indexed links the chunk completes, with no
// scanning and no allocation. At the first chunk that does not (or that
// runs past the page's end) the extractor rebuilds, from the verified
// prefix, the state an unarmed one would have, and scans from then on.
// Either way each Feed returns exactly what an unarmed extractor returns
// for the same calls.
func (e *LinkExtractor) Arm(x *PageIndex) { *e = LinkExtractor{index: x} }

// replay answers a Feed that brought the verified prefix of the armed
// index's page to end bytes.
func (e *LinkExtractor) replay(end int) []Link {
	x, from := e.index, e.replayed
	e.verified = end
	for e.replayed < len(x.ends) && x.ends[e.replayed] <= end {
		e.replayed++
	}
	if e.replayed == from {
		return nil
	}
	return x.links[from:e.replayed:e.replayed]
}
