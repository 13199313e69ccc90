// Package htmlparse is a streaming HTML scanner and embedded-link
// extractor. The simulated robot feeds it response bytes as they arrive
// from the network, discovering inline images incrementally — exactly the
// behaviour the paper analyses when it discusses how much of the first
// TCP segment's HTML is needed before a new batch of pipelined requests
// can be issued.
package htmlparse

import (
	"bytes"
	"strings"
)

// TokenType classifies a token.
type TokenType int

// Token types.
const (
	Text TokenType = iota
	StartTag
	EndTag
	Comment
	Decl // <!DOCTYPE ...> and other declarations
)

// scanner is the lexical core of LinkExtractor (and of the tests'
// token-materialising Tokenizer): it
// finds token boundaries in a stream fed in arbitrary pieces and yields
// each complete token as its type and its bytes between the delimiters,
// without building anything from them. It keeps only the input not yet
// yielded, and remembers how far it has already looked for the end of
// the token at the front, so a token that stays incomplete over many
// pushes is searched once, not once per push.
type scanner struct {
	buf   []byte
	pos   int  // start of the first token not yet yielded
	seen  int  // bytes of that token already searched without finding its end
	quote byte // quote open at seen (start tags only)
}

// push appends input.
func (z *scanner) push(data []byte) { z.buf = append(z.buf, data...) }

// compact discards the yielded tokens, keeping the incomplete tail at
// the front of the same array. Slices returned by next are invalid
// afterwards.
func (z *scanner) compact() {
	z.buf = z.buf[:copy(z.buf, z.buf[z.pos:])]
	z.pos = 0
}

// next yields the next complete token: the text of a Text token, the
// content of a Comment, and what stands between "<", "<!" or "</" and
// the closing ">" of a StartTag, Decl or EndTag.
func (z *scanner) next() (typ TokenType, raw []byte, ok bool) {
	buf := z.buf[z.pos:]
	if len(buf) == 0 {
		return 0, nil, false
	}
	if buf[0] != '<' {
		// Text up to the next '<'. Yielded only once the '<' is present;
		// otherwise more text may still arrive.
		i := bytes.IndexByte(buf[z.seen:], '<')
		if i < 0 {
			z.seen = len(buf)
			return 0, nil, false
		}
		return z.yield(Text, buf[:z.seen+i], z.seen+i)
	}
	if len(buf) < 2 {
		return 0, nil, false
	}
	switch {
	case bytes.HasPrefix(buf, commentOpen):
		// The search starts at the opener's own dashes, so "<!-->" and
		// "<!--->" close at once, as empty comments.
		from := max(z.seen, 2)
		i := bytes.Index(buf[from:], commentClose)
		if i < 0 {
			z.seen = len(buf) - (len(commentClose) - 1)
			return 0, nil, false
		}
		end := from + i
		return z.yield(Comment, buf[min(4, end):end], end+len(commentClose))
	case buf[1] == '!' || buf[1] == '/':
		typ = Decl
		if buf[1] == '/' {
			typ = EndTag
		}
		from := max(z.seen, 2)
		i := bytes.IndexByte(buf[from:], '>')
		if i < 0 {
			// "<!-" may yet turn out to open a comment, which is
			// searched from its second byte: record nothing until the
			// first four bytes have fixed the token's kind.
			if len(buf) >= len(commentOpen) {
				z.seen = len(buf)
			}
			return 0, nil, false
		}
		return z.yield(typ, buf[2:from+i], from+i+1)
	default:
		// A start tag ends at the first '>' outside a quoted attribute
		// value.
		for i := max(z.seen, 1); i < len(buf); i++ {
			c := buf[i]
			switch {
			case z.quote != 0:
				if c == z.quote {
					z.quote = 0
				}
			case c == '"' || c == '\'':
				z.quote = c
			case c == '>':
				return z.yield(StartTag, buf[1:i], i+1)
			}
		}
		z.seen = len(buf)
		return 0, nil, false
	}
}

// yield consumes the n bytes of the token at the front.
func (z *scanner) yield(typ TokenType, raw []byte, n int) (TokenType, []byte, bool) {
	z.pos += n
	z.seen, z.quote = 0, 0
	return typ, raw, true
}

var (
	commentOpen  = []byte("<!--")
	commentClose = []byte("-->")
)

// tagName splits a start tag's bytes into its name and its attribute
// text. The self-closing slash is irrelevant for 1997-era HTML; it is
// stripped.
func tagName(raw []byte) (name, attrs []byte) {
	raw = bytes.TrimSpace(raw)
	if n := len(raw); n > 0 && raw[n-1] == '/' {
		raw = raw[:n-1]
	}
	i := 0
	for i < len(raw) && !isSpace(raw[i]) {
		i++
	}
	return raw[:i], raw[i:]
}

// nextAttr splits the first attribute off a start tag's attribute text,
// returning its name as written, its value with the surrounding quotes
// removed ("" when it has none), and the text after it. An empty name
// means there is no further attribute.
func nextAttr(s string) (name, value, rest string) {
	const space = " \t\r\n"
	for {
		s = strings.TrimLeft(s, space)
		if s == "" {
			return "", "", ""
		}
		j := 0
		for j < len(s) && s[j] != '=' && !isSpace(s[j]) {
			j++
		}
		name, s = s[:j], strings.TrimLeft(s[j:], space)
		if name != "" {
			break
		}
		// Stray character such as a lone '='; skip it.
		s = s[1:]
	}
	if s == "" || s[0] != '=' {
		return name, "", s
	}
	s = strings.TrimLeft(s[1:], space)
	if s != "" && (s[0] == '"' || s[0] == '\'') {
		end := strings.IndexByte(s[1:], s[0])
		if end < 0 {
			return name, s[1:], ""
		}
		return name, s[1 : 1+end], s[2+end:]
	}
	j := 0
	for j < len(s) && !isSpace(s[j]) {
		j++
	}
	return name, s[:j], s[j:]
}

func isSpace(c byte) bool { return c == ' ' || c == '\t' || c == '\r' || c == '\n' }
