package htmlparse

import "strings"

// The reference implementation: the tokenizer and link extractor as they
// were before the scanner rewrite, kept verbatim (renamed; one panic
// and one case-sensitive comparison fixed, both marked below) so the
// differential tests can demand the same tokens and the same links from
// every Feed call, for any chunking. It materialises a Token per lexical
// element and rescans a stalled token from offset 0; that cost is why it
// lives here and not in the package.

// oracleTokenizer incrementally tokenizes HTML. Feed may be called with any
// byte slicing; tokens are emitted as soon as they are complete.
type oracleTokenizer struct {
	buf []byte
}

// Feed appends data and returns the tokens completed by it.
func (z *oracleTokenizer) Feed(data []byte) []Token {
	z.buf = append(z.buf, data...)
	var out []Token
	for {
		tok, n, ok := z.next()
		if !ok {
			return out
		}
		z.buf = z.buf[n:]
		out = append(out, tok)
	}
}

// Flush returns any trailing text at end of input.
func (z *oracleTokenizer) Flush() []Token {
	if len(z.buf) == 0 {
		return nil
	}
	t := Token{Type: Text, Data: string(z.buf)}
	z.buf = nil
	return []Token{t}
}

// Buffered returns the number of bytes held awaiting a complete token.
func (z *oracleTokenizer) Buffered() int { return len(z.buf) }

// next tries to extract one token from the front of the buffer.
func (z *oracleTokenizer) next() (Token, int, bool) {
	buf := z.buf
	if len(buf) == 0 {
		return Token{}, 0, false
	}
	if buf[0] != '<' {
		// Text up to the next '<'. Emit only if the '<' is present;
		// otherwise more text may still arrive (unless Flush is called).
		i := oracleIndexByte(buf, '<')
		if i < 0 {
			return Token{}, 0, false
		}
		return Token{Type: Text, Data: string(buf[:i])}, i, true
	}
	if len(buf) < 2 {
		return Token{}, 0, false
	}
	switch {
	case oracleHasPrefix(buf, "<!--"):
		end := oracleIndexString(buf, "-->")
		if end < 0 {
			return Token{}, 0, false
		}
		if end < 4 {
			// The first departure from the original, which sliced
			// buf[4:end] and panicked on the abruptly closed comments
			// "<!-->" and "<!--->": they are empty comments.
			return Token{Type: Comment}, end + 3, true
		}
		return Token{Type: Comment, Data: string(buf[4:end])}, end + 3, true
	case buf[1] == '!':
		end := oracleIndexByte(buf, '>')
		if end < 0 {
			return Token{}, 0, false
		}
		return Token{Type: Decl, Data: string(buf[2:end])}, end + 1, true
	case buf[1] == '/':
		end := oracleIndexByte(buf, '>')
		if end < 0 {
			return Token{}, 0, false
		}
		name := strings.ToLower(strings.TrimSpace(string(buf[2:end])))
		return Token{Type: EndTag, Data: name}, end + 1, true
	default:
		end := oracleTagEnd(buf)
		if end < 0 {
			return Token{}, 0, false
		}
		tok := oracleParseStartTag(buf[1:end])
		return tok, end + 1, true
	}
}

// oracleTagEnd finds the '>' terminating a start tag, respecting quoted
// attribute values.
func oracleTagEnd(buf []byte) int {
	var quote byte
	for i := 1; i < len(buf); i++ {
		c := buf[i]
		switch {
		case quote != 0:
			if c == quote {
				quote = 0
			}
		case c == '"' || c == '\'':
			quote = c
		case c == '>':
			return i
		}
	}
	return -1
}

func oracleParseStartTag(raw []byte) Token {
	s := string(raw)
	// Self-closing slash is irrelevant for 1997-era HTML; strip it.
	s = strings.TrimSuffix(strings.TrimSpace(s), "/")
	i := 0
	for i < len(s) && !isSpace(s[i]) {
		i++
	}
	tok := Token{Type: StartTag, Data: strings.ToLower(s[:i])}
	rest := s[i:]
	for {
		rest = strings.TrimLeft(rest, " \t\r\n")
		if rest == "" {
			return tok
		}
		// Attribute name.
		j := 0
		for j < len(rest) && rest[j] != '=' && !isSpace(rest[j]) {
			j++
		}
		name := strings.ToLower(rest[:j])
		rest = strings.TrimLeft(rest[j:], " \t\r\n")
		if name == "" {
			// Stray character such as a lone '='; skip it.
			rest = rest[1:]
			continue
		}
		if rest == "" || rest[0] != '=' {
			tok.Attrs = append(tok.Attrs, Attr{Name: name})
			continue
		}
		rest = strings.TrimLeft(rest[1:], " \t\r\n")
		var value string
		if rest != "" && (rest[0] == '"' || rest[0] == '\'') {
			q := rest[0]
			end := strings.IndexByte(rest[1:], q)
			if end < 0 {
				value = rest[1:]
				rest = ""
			} else {
				value = rest[1 : 1+end]
				rest = rest[2+end:]
			}
		} else {
			j = 0
			for j < len(rest) && !isSpace(rest[j]) {
				j++
			}
			value = rest[:j]
			rest = rest[j:]
		}
		tok.Attrs = append(tok.Attrs, Attr{Name: name, Value: DecodeEntities(value)})
	}
}

func oracleHasPrefix(b []byte, s string) bool {
	return len(b) >= len(s) && string(b[:len(s)]) == s
}

func oracleIndexByte(b []byte, c byte) int {
	for i, v := range b {
		if v == c {
			return i
		}
	}
	return -1
}

func oracleIndexString(b []byte, s string) int {
	return strings.Index(string(b), s)
}

// oracleExtractor finds resource references in a streamed HTML document.
// Duplicate URLs of the same kind are reported once, like a browser's
// fetch queue.
type oracleExtractor struct {
	tok  oracleTokenizer
	seen map[string]bool
}

// Feed consumes HTML bytes and returns newly discovered links in document
// order.
func (e *oracleExtractor) Feed(data []byte) []Link {
	var out []Link
	for _, t := range e.tok.Feed(data) {
		out = e.extract(t, out)
	}
	return out
}

func (e *oracleExtractor) extract(t Token, out []Link) []Link {
	if t.Type != StartTag {
		return out
	}
	add := func(url string, kind LinkKind) []Link {
		if url == "" {
			return out
		}
		if e.seen == nil {
			e.seen = make(map[string]bool)
		}
		key := kind.String() + "|" + url
		if e.seen[key] {
			return out
		}
		e.seen[key] = true
		return append(out, Link{URL: url, Kind: kind})
	}
	switch t.Data {
	case "img":
		if src, ok := t.Attr("src"); ok {
			out = add(src, LinkImage)
		}
	case "input":
		// The second departure: the original compared type with
		// "image" case-sensitively, losing <INPUT TYPE=IMAGE>.
		if typ, _ := t.Attr("type"); equalFold(typ, "image") {
			if src, ok := t.Attr("src"); ok {
				out = add(src, LinkImage)
			}
		}
	case "body":
		if bg, ok := t.Attr("background"); ok {
			out = add(bg, LinkBackground)
		}
	case "link":
		rel, _ := t.Attr("rel")
		if equalFold(rel, "stylesheet") {
			if href, ok := t.Attr("href"); ok {
				out = add(href, LinkStylesheet)
			}
		}
	case "script":
		if src, ok := t.Attr("src"); ok {
			out = add(src, LinkScript)
		}
	case "frame", "iframe":
		if src, ok := t.Attr("src"); ok {
			out = add(src, LinkFrame)
		}
	case "a":
		if href, ok := t.Attr("href"); ok {
			out = add(href, LinkAnchor)
		}
	}
	return out
}

func equalFold(a, b string) bool {
	if len(a) != len(b) {
		return false
	}
	for i := 0; i < len(a); i++ {
		ca, cb := a[i], b[i]
		if 'A' <= ca && ca <= 'Z' {
			ca += 32
		}
		if 'A' <= cb && cb <= 'Z' {
			cb += 32
		}
		if ca != cb {
			return false
		}
	}
	return true
}

// Tokenizer is the scanner behind LinkExtractor with every token
// materialised: the differential tests compare it token for token with
// oracleTokenizer, which checks the scanner's token boundaries, not only
// the links it leads to.

// Attr is one tag attribute. Name is lower-cased; Value is unescaped of
// surrounding quotes only.
type Attr struct {
	Name, Value string
}

// Token is one lexical HTML element.
type Token struct {
	Type  TokenType
	Data  string // tag name (lower-cased) or text/comment content
	Attrs []Attr
}

// Attr returns the value of the named attribute and whether it exists.
func (t *Token) Attr(name string) (string, bool) {
	for _, a := range t.Attrs {
		if a.Name == name {
			return a.Value, true
		}
	}
	return "", false
}

// Tokenizer incrementally tokenizes HTML. Feed may be called with any
// byte slicing; tokens are emitted as soon as they are complete.
type Tokenizer struct {
	z scanner
}

// Feed appends data and returns the tokens completed by it.
func (t *Tokenizer) Feed(data []byte) []Token {
	t.z.push(data)
	var out []Token
	for {
		typ, raw, ok := t.z.next()
		if !ok {
			t.z.compact()
			return out
		}
		switch typ {
		case StartTag:
			out = append(out, parseStartTag(raw))
		case EndTag:
			out = append(out, Token{Type: EndTag, Data: strings.ToLower(strings.TrimSpace(string(raw)))})
		default:
			out = append(out, Token{Type: typ, Data: string(raw)})
		}
	}
}

// Flush returns any trailing text at end of input.
func (t *Tokenizer) Flush() []Token {
	if len(t.z.buf) == 0 {
		return nil
	}
	tok := Token{Type: Text, Data: string(t.z.buf)}
	t.z = scanner{}
	return []Token{tok}
}

// Buffered returns the number of bytes held awaiting a complete token.
func (t *Tokenizer) Buffered() int { return len(t.z.buf) }

func parseStartTag(raw []byte) Token {
	name, attrs := tagName(raw)
	tok := Token{Type: StartTag, Data: strings.ToLower(string(name))}
	rest := string(attrs)
	for {
		attr, value, tail := nextAttr(rest)
		if attr == "" {
			return tok
		}
		tok.Attrs = append(tok.Attrs, Attr{Name: strings.ToLower(attr), Value: DecodeEntities(value)})
		rest = tail
	}
}
