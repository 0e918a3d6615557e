package gcs

// dupFilter suppresses duplicates of the reliable direct unicast stream,
// per sending peer: every sequence number at or below high[peer] has been
// seen, and sparse[peer] holds the ones seen above it (arrivals past a
// gap), folded into the watermark as soon as the gap fills.
type dupFilter struct {
	high   map[string]uint64
	sparse map[string]map[uint64]bool
}

func newDupFilter() dupFilter {
	return dupFilter{
		high:   make(map[string]uint64),
		sparse: make(map[string]map[uint64]bool),
	}
}

// seen records oseq from peer and reports whether it had been recorded
// before.
func (d *dupFilter) seen(peer string, oseq uint64) bool {
	high := d.high[peer]
	if oseq <= high {
		return true
	}
	sparse := d.sparse[peer]
	if sparse == nil {
		sparse = make(map[uint64]bool)
		d.sparse[peer] = sparse
	}
	if sparse[oseq] {
		return true
	}
	sparse[oseq] = true
	// Compact the contiguous prefix into the watermark.
	for sparse[high+1] {
		high++
		delete(sparse, high)
	}
	d.high[peer] = high
	return false
}
