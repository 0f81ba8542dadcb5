package dqp

import (
	"adhocshare/internal/chord"
	"adhocshare/internal/lockcheck"
	"adhocshare/internal/overlay"
	"adhocshare/internal/simnet"
)

// lookupCache memoizes two-level index resolutions (key → responsible
// index node + location-table row) at a query initiator. Repeated queries
// over the same patterns then skip both the Chord routing and the
// location-table read — an extension beyond the paper, evaluated in E14.
//
// Consistency: entries are invalidated when the executor observes a stale
// storage node (the Sect. III-D timeout path) and evicted FIFO beyond the
// capacity. A cached row can still be stale in other ways (new providers
// published after caching); queries then miss those providers until the
// entry ages out, which is the usual trade of ad-hoc caching.
type lookupCache struct {
	mu    lockcheck.Mutex
	max   int
	order []chord.ID
	rows  map[chord.ID]cachedRow
}

type cachedRow struct {
	index    simnet.Addr
	postings []overlay.Posting
}

func newLookupCache(max int) *lookupCache {
	if max <= 0 {
		max = 1024
	}
	return &lookupCache{max: max, rows: map[chord.ID]cachedRow{}}
}

func (c *lookupCache) get(key chord.ID) (cachedRow, bool) {
	c.mu.Lock()
	defer c.mu.Unlock()
	row, ok := c.rows[key]
	return row, ok
}

// put caches a key's row. Entries are advisory and revalidated against node
// liveness on use.
func (c *lookupCache) put(key chord.ID, row cachedRow) {
	c.mu.Lock()
	defer c.mu.Unlock()
	if _, exists := c.rows[key]; !exists {
		c.order = append(c.order, key)
		for len(c.order) > c.max {
			evict := c.order[0]
			c.order = c.order[1:]
			delete(c.rows, evict)
		}
	}
	c.rows[key] = row
}

// dropNode removes a storage node from every cached row (stale-node
// invalidation); rows that become empty are removed so the next query
// re-resolves them.
func (c *lookupCache) dropNode(node simnet.Addr) {
	c.mu.Lock()
	defer c.mu.Unlock()
	for key, row := range c.rows {
		var keep []overlay.Posting
		for _, p := range row.postings {
			if p.Node != node {
				keep = append(keep, p)
			}
		}
		if len(keep) == len(row.postings) {
			continue
		}
		if len(keep) == 0 {
			delete(c.rows, key)
			continue
		}
		row.postings = keep
		c.rows[key] = row
	}
}

// Len returns the number of cached rows.
func (c *lookupCache) Len() int {
	c.mu.Lock()
	defer c.mu.Unlock()
	return len(c.rows)
}
