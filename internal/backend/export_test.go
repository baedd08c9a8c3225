package backend

import "odr/internal/workload"

// PoolHolds reports whether c's storage pool caches the file with id,
// reading the pool by the file's ordinal; a file c's population never
// numbered is not cached. The replay itself reads each request's latched
// verdict instead (Probe).
func PoolHolds(c *Cloud, id workload.FileID) bool {
	c.pop.mu.Lock()
	o, ok := c.pop.seed.index[id]
	if !ok {
		o, ok = c.pop.added[id]
	}
	c.pop.mu.Unlock()
	return ok && c.pool.ContainsKey(o.idx())
}
