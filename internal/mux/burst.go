package mux

import (
	"fmt"
	"strconv"
	"strings"
)

// Http-Burst mode (after Farber et al.'s Http-Burst proposal cited in
// PAPERS.md): the client sends one GET for the page with an
// Accept-Burst request header, and the server answers with a single
// aggregated response carrying the HTML plus every inline object.
// One request/response pair replaces the whole fetch conversation —
// the logical endpoint of the paper's "get everything in one
// connection" trajectory, traded against cacheability of the
// individual objects.

// BurstContentType marks an aggregated response body.
const BurstContentType = "application/x-burst"

// BurstRequestHeader is the request header a burst-mode client sends
// ("Accept-Burst: records") to ask for aggregation.
const (
	BurstRequestHeader = "Accept-Burst"
	BurstRequestValue  = "records"
)

// BurstRecord is one object inside an aggregated response.
type BurstRecord struct {
	Path         string
	ContentType  string
	ETag         string
	LastModified string // may contain spaces; encoded as the rest-of-line field
	Body         []byte
}

// EncodeBurst marshals records as a sequence of
//
//	path SP content-type SP body-length SP etag SP last-modified LF
//	body-length bytes
//
// Last-Modified goes last on the line because HTTP dates contain
// spaces.
func EncodeBurst(records []BurstRecord) []byte {
	n := 0
	for _, r := range records {
		// Four spaces, a newline and at most 19 length digits.
		n += len(r.Path) + len(r.ContentType) + len(r.ETag) + len(r.LastModified) + len(r.Body) + 24
	}
	b := make([]byte, 0, n)
	for _, r := range records {
		b = append(b, r.Path...)
		b = append(b, ' ')
		b = append(b, r.ContentType...)
		b = append(b, ' ')
		b = strconv.AppendInt(b, int64(len(r.Body)), 10)
		b = append(b, ' ')
		b = append(b, r.ETag...)
		b = append(b, ' ')
		b = append(b, r.LastModified...)
		b = append(b, '\n')
		b = append(b, r.Body...)
	}
	return b
}

// DecodeBurst parses an aggregated response body.
func DecodeBurst(body []byte) ([]BurstRecord, error) {
	var records []BurstRecord
	for len(body) > 0 {
		nl := strings.IndexByte(string(body[:min(len(body), 512)]), '\n')
		if nl < 0 {
			return nil, fmt.Errorf("mux: burst record %d: unterminated header line", len(records))
		}
		line := string(body[:nl])
		body = body[nl+1:]
		parts := strings.SplitN(line, " ", 5)
		if len(parts) != 5 {
			return nil, fmt.Errorf("mux: burst record %d: %d header fields, want 5", len(records), len(parts))
		}
		n, err := strconv.Atoi(parts[2])
		if err != nil || n < 0 {
			return nil, fmt.Errorf("mux: burst record %d: bad length %q", len(records), parts[2])
		}
		if n > len(body) {
			return nil, fmt.Errorf("mux: burst record %d: length %d exceeds remaining %d bytes", len(records), n, len(body))
		}
		records = append(records, BurstRecord{
			Path:         parts[0],
			ContentType:  parts[1],
			ETag:         parts[3],
			LastModified: parts[4],
			Body:         body[:n],
		})
		body = body[n:]
	}
	return records, nil
}
