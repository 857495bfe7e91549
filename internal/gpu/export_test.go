package gpu

// MemoStats reports how cluster c's solve memo has been used: its
// entries, the solves that consulted it (hits and misses), and every
// insertion since New. While inserts stays below MemoCap the memo has
// never been cleared, so its entries are every distinct input it was
// asked to solve.
func MemoStats(c *Cluster) (distinct, solves, inserts int) {
	return len(c.memo), c.solves, c.inserts
}

// MemoCap is the memo's entry cap.
const MemoCap = memoCap
