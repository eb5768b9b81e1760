package stats

// SetMaxEntries lowers the cache's entry bound (DefaultMaxEntries), so
// the eviction test can reach it with a handful of projections. Call it
// before the cache is shared.
func SetMaxEntries(c *Cache, n int) { c.max = int64(n) }
