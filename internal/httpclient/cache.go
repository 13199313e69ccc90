package httpclient

import "repro/internal/webgen"

// Entry is one cached resource's metadata. Bodies are not retained: the
// revalidation workload only needs validators and, for HTML, the inline
// link list.
type Entry struct {
	Path         string
	ETag         string
	LastModified string
	Size         int
	// Links lists inline resources referenced by an HTML entry, in
	// document order.
	Links []string
	// Validations counts successful 304 revalidations.
	Validations int
}

// Cache is the robot's persistent cache (kept on a memory file system in
// the paper's final runs).
type Cache struct {
	entries map[string]*Entry
}

// NewCache returns an empty cache.
func NewCache() *Cache {
	return &Cache{entries: make(map[string]*Entry)}
}

// Get returns the entry for path.
func (c *Cache) Get(path string) (*Entry, bool) {
	e, ok := c.entries[path]
	return e, ok
}

// Put stores an entry.
func (c *Cache) Put(e *Entry) { c.entries[e.Path] = e }

// Len returns the number of entries.
func (c *Cache) Len() int { return len(c.entries) }

// Prime fills the cache from a site, as if a prior first-time retrieval
// had completed: every object's validators, plus the page's inline link
// list (from the site's link index, built once per site and shared).
func (c *Cache) Prime(site *webgen.Site) {
	for _, path := range site.Paths() {
		obj, _ := site.Object(path)
		e := &Entry{
			Path:         obj.Path,
			ETag:         obj.ETag,
			LastModified: obj.LastModified,
			Size:         len(obj.Body),
		}
		if obj == site.HTML {
			e.Links = site.LinkIndex().InlineURLs()
		}
		c.Put(e)
	}
}
