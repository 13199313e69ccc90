package httpclient

import (
	"repro/internal/httpmsg"
	"repro/internal/mux"
)

// handleBurstResponse consumes the ModeBurst page response: on a 200
// burst payload every inline object arrives as a record of the single
// aggregated response, so the whole fetch is one request/response
// exchange; on a 304 the cached page (and, by the burst contract, its
// recorded contents) revalidated in one round trip.
func (r *Robot) handleBurstResponse(it workItem, resp *httpmsg.Response) {
	body := resp.Body
	switch resp.StatusCode {
	case 200:
		r.result.Responses200++
	case 304:
		r.result.Responses304++
	default:
		r.result.ResponsesOther++
	}
	r.result.PayloadBytes += int64(resp.BodyLen)

	// The burst response is the metadata for every object on the page.
	r.metaPending--
	if r.metaPending == 0 {
		r.result.MetadataSeconds = r.sim.Now().Seconds()
	}

	switch {
	case resp.StatusCode == 200 && resp.Header.Get("Content-Type") == mux.BurstContentType:
		if records, err := mux.DecodeBurst(body); err == nil {
			var links []string
			for _, rec := range records {
				if rec.Path != it.path {
					links = append(links, rec.Path)
				}
			}
			for _, rec := range records {
				e := &Entry{
					Path:         rec.Path,
					ContentType:  rec.ContentType,
					ETag:         rec.ETag,
					LastModified: rec.LastModified,
					Size:         len(rec.Body),
				}
				if rec.Path == it.path {
					e.Links = links
				}
				r.cache.Put(e)
			}
		}
	case resp.StatusCode == 304:
		// The page validated; the burst contract extends that to the
		// recorded contents, so no per-object revalidations are queued.
		if e, ok := r.cache.Get(it.path); ok {
			e.Validations++
			for _, url := range e.Links {
				if c, ok := r.cache.Get(url); ok {
					c.Validations++
				}
			}
		}
	}

	r.htmlPending = false
	r.handled++
	r.dispatch()
}
