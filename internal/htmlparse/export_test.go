package htmlparse

import (
	"maps"
	"slices"
)

// Internals for the tests in package htmlparse_test, which synthesize
// their pages with webgen and so cannot be in this package: webgen
// imports it.

type (
	OracleExtractor = oracleExtractor
	OracleTokenizer = oracleTokenizer
)

// Buffered returns the number of bytes e holds awaiting a complete token.
func (e *LinkExtractor) Buffered() int { return len(e.z.buf) }

// Buffered returns the number of bytes e holds awaiting a complete token.
func (e *oracleExtractor) Buffered() int { return e.tok.Buffered() }

// Replaying reports whether e is still armed, and how many bytes of its
// index's page it has verified.
func (e *LinkExtractor) Replaying() (armed bool, verified int) { return e.index != nil, e.verified }

// Clone copies an unarmed extractor's state.
func (e *LinkExtractor) Clone() LinkExtractor {
	c := *e
	c.z.buf = slices.Clone(e.z.buf)
	c.seen = maps.Clone(e.seen)
	return c
}

// Ends returns the document offset just past each indexed link's tag.
func (x *PageIndex) Ends() []int { return x.ends }
