package cache

// Accessors only the tests read.

// Bytes returns the cache's current byte charge.
func (c *Cache) Bytes() int64 { return c.used }

// Stats returns a copy of the activity counters.
func (c *Cache) Stats() Stats { return c.stats }
