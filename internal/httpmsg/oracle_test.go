package httpmsg

import (
	"bytes"
	"fmt"
	"strconv"
	"strings"
	"testing"
)

// The head parsers this package shipped before heads were parsed in
// place: the whole head split into lines, the start line split into
// parts, fields appended one by one. Kept as the oracle the in-place
// parsers are fuzzed against (FuzzRequestParser, FuzzResponseParser).

func oracleRequestHead(head []byte) (*Request, error) {
	lines := strings.Split(string(head), "\r\n")
	parts := strings.SplitN(lines[0], " ", 3)
	if len(parts) != 3 || !strings.HasPrefix(parts[2], "HTTP/") {
		return nil, fmt.Errorf("%w: bad request line %q", ErrMalformed, lines[0])
	}
	req := &Request{Method: parts[0], Target: parts[1], Proto: parts[2]}
	if err := oracleFields(lines[1:], &req.Header); err != nil {
		return nil, err
	}
	return req, nil
}

func oracleResponseHead(head []byte) (*Response, error) {
	lines := strings.Split(string(head), "\r\n")
	parts := strings.SplitN(lines[0], " ", 3)
	if len(parts) < 2 || !strings.HasPrefix(parts[0], "HTTP/") {
		return nil, fmt.Errorf("%w: bad status line %q", ErrMalformed, lines[0])
	}
	code, err := strconv.Atoi(parts[1])
	if err != nil || code < 100 || code > 599 {
		return nil, fmt.Errorf("%w: bad status code %q", ErrMalformed, parts[1])
	}
	resp := &Response{Proto: parts[0], StatusCode: code}
	if len(parts) == 3 {
		resp.Reason = parts[2]
	}
	if err := oracleFields(lines[1:], &resp.Header); err != nil {
		return nil, err
	}
	return resp, nil
}

func oracleFields(lines []string, h *Header) error {
	for _, line := range lines {
		if line == "" {
			continue
		}
		colon := strings.IndexByte(line, ':')
		if colon < 1 {
			return fmt.Errorf("%w: bad header field %q", ErrMalformed, line)
		}
		h.fields = append(h.fields, Field{Name: line[:colon], Value: strings.TrimSpace(line[colon+1:])})
	}
	return nil
}

// checkHeadsAgainstOracle cuts data at every blank line — where the
// incremental parsers find a head's end — and demands that the in-place
// parsers and the oracle agree on every piece: the same message (a head
// marshals every token it was parsed into), or the same error text.
func checkHeadsAgainstOracle(t *testing.T, data []byte) {
	t.Helper()
	for rest := string(data); ; {
		end := strings.Index(rest, "\r\n\r\n")
		if end < 0 {
			return
		}
		head := []byte(rest[:end+4])
		rest = rest[end+4:]

		gotReq, gotErr := parseRequestHead(head)
		wantReq, wantErr := oracleRequestHead(head)
		if fmt.Sprint(gotErr) != fmt.Sprint(wantErr) {
			t.Fatalf("request head %q: error %v, oracle %v", head, gotErr, wantErr)
		}
		if gotErr == nil && !bytes.Equal(gotReq.Marshal(), wantReq.Marshal()) {
			t.Fatalf("request head %q:\n got %+v\nwant %+v", head, gotReq, wantReq)
		}
		gotResp, gotErr := parseResponseHead(head)
		wantResp, wantErr := oracleResponseHead(head)
		if fmt.Sprint(gotErr) != fmt.Sprint(wantErr) {
			t.Fatalf("response head %q: error %v, oracle %v", head, gotErr, wantErr)
		}
		if gotErr == nil && !bytes.Equal(gotResp.Marshal(), wantResp.Marshal()) {
			t.Fatalf("response head %q:\n got %+v\nwant %+v", head, gotResp, wantResp)
		}
	}
}

// The shapes the in-place parsers could plausibly get wrong, each also a
// fuzz seed.
var headShapes = []string{
	"HTTP/1.1 200\r\n\r\n",                       // status line without a reason phrase
	"HTTP/1.1 200 \r\nA:\r\n\r\n",                // empty reason, empty field value
	"HTTP/1.1  200 OK\r\n\r\n",                   // doubled space: empty status code
	"HTTP/1.1 +200 Fine By Atoi\r\n\r\n",         // signed status code
	"HTTP/1.0 200 OK\r\nA: 1\nB: 2\r\n\r\n",      // bare LF stays inside one field
	"HTTP/1.1 200 OK\r\nno colon here\r\n\r\n",   // colon-less line
	"HTTP/1.1 200 OK\r\n: leading colon\r\n\r\n", // empty field name
	"GET / HTTP/1.1\r\nA:  padded \t\r\n\r\n",    // value trimmed on both sides
	"GET /a b HTTP/1.1\r\n\r\n",                  // space inside what becomes the proto
	"GET /\r\n\r\n",                              // two-part request line
	"\r\n\r\n",                                   // empty start line
	"GET / HTTP/1.1\r\nA: 1\r\nB: 2\r\nC: 3\r\nD: 4\r\nE: 5\r\nF: 6\r\nG: 7\r\nH: 8\r\nI: 9\r\nJ: 10\r\n\r\n", // more than eight fields
	"HTTP/1.1 200 OK\r\nA: 1\r\nB: 2\r\nC: 3\r\nD: 4\r\nE: 5\r\nF: 6\r\nG: 7\r\nH: 8\r\nI: 9\r\nContent-Length: 0\r\n\r\n",
}

func TestHeadParsersMatchOracle(t *testing.T) {
	for _, shape := range headShapes {
		checkHeadsAgainstOracle(t, []byte(shape))
	}
}

// TokenListContains and ETagMatch walk the list in place; a
// strings.Split of it must give the same answer, empty entries and all.
func TestTokenScansMatchSplit(t *testing.T) {
	for _, list := range []string{"", ",", "close", "a,", ",a", " a , b ", "Keep-Alive, Close", `"x1", "x2"`, `*`, ` * `, "a,,b", "closed"} {
		for _, token := range []string{"", "a", "b", "close", `"x2"`, "*"} {
			wantToken, wantTag := false, strings.TrimSpace(list) == "*"
			for _, part := range strings.Split(list, ",") {
				wantToken = wantToken || strings.EqualFold(strings.TrimSpace(part), token)
				wantTag = wantTag || strings.TrimSpace(part) == token
			}
			if got := TokenListContains(list, token); got != wantToken {
				t.Errorf("TokenListContains(%q, %q) = %v, want %v", list, token, got, wantToken)
			}
			if got := ETagMatch(list, token); got != wantTag {
				t.Errorf("ETagMatch(%q, %q) = %v, want %v", list, token, got, wantTag)
			}
		}
	}
}
