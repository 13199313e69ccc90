package httpmsg

// Accessors only the tests read.

// Buffered returns the number of unconsumed bytes.
func (p *ResponseParser) Buffered() int { return p.buf.len() }
