package httpmsg

import (
	"fmt"
	"time"
)

// HTTP-date handling per RFC 2068 §3.3.1: servers must accept all three
// historical formats and must generate RFC 1123 dates. The 1997-era
// If-Modified-Since comparison rules apply: an unparseable date is
// ignored (treated as "modified").

// httpDateFormats lists the three formats in preference order.
var httpDateFormats = []string{
	"Mon, 02 Jan 2006 15:04:05 GMT",  // RFC 1123 (preferred)
	"Monday, 02-Jan-06 15:04:05 GMT", // RFC 850
	"Mon Jan  2 15:04:05 2006",       // ANSI C asctime()
}

// ParseDate parses an HTTP-date in any of the three RFC 2068 formats.
func ParseDate(s string) (time.Time, error) {
	for _, layout := range httpDateFormats {
		if t, err := time.Parse(layout, s); err == nil {
			return t, nil
		}
	}
	return time.Time{}, fmt.Errorf("%w: unparseable HTTP-date %q", ErrMalformed, s)
}

// ModifiedSince reports whether an entity with the given Last-Modified
// value should be considered modified relative to an If-Modified-Since
// header. Per the specification's spirit (and defensive 1997 practice):
// if either date is unparseable the entity is treated as modified, and
// an If-Modified-Since in the future is ignored too.
func ModifiedSince(lastModified, ifModifiedSince string) bool {
	lm, err := ParseDate(lastModified)
	if err != nil {
		return true
	}
	ims, err := ParseDate(ifModifiedSince)
	if err != nil {
		return true
	}
	return lm.After(ims)
}
