package core

import (
	"testing"

	"sinrmac/internal/rng"
)

func TestSeenSetAdd(t *testing.T) {
	const b = seenBitmapIDs
	cases := []struct {
		name string
		ids  []MessageID
		want []bool
	}{
		{"empty", nil, nil},
		{"ascending", []MessageID{1, 2, 5, 9}, []bool{true, true, true, true}},
		{"duplicates", []MessageID{3, 3, 7, 3, 7, 7}, []bool{true, false, true, false, false, false}},
		{"descending", []MessageID{9, 5, 2, 1, 0, 5}, []bool{true, true, true, true, true, false}},
		{"interleaved", []MessageID{10, 1, 20, 5, 15, 1, 12, 20, 0, 11},
			[]bool{true, true, true, true, true, false, true, false, true, true}},
		{"bitmap-boundary", []MessageID{b, b - 1, b, b - 1, 63, 64, 64},
			[]bool{true, true, false, false, true, true, false}},
		{"extremes", []MessageID{^MessageID(0), 0, ^MessageID(0), 0},
			[]bool{true, true, false, false}},
	}
	for _, tc := range cases {
		var s SeenSet
		for i, id := range tc.ids {
			if got := s.Add(id); got != tc.want[i] {
				t.Errorf("%s: Add(%d) at step %d = %v, want %v", tc.name, id, i, got, tc.want[i])
			}
		}
	}
}

// TestSeenSetMatchesMap drives the set and a map with the same random id
// stream, dense enough to repeat ids, with ids on both sides of the bitmap
// bound, and checks every Add result.
func TestSeenSetMatchesMap(t *testing.T) {
	src := rng.New(0x5ee7)
	var s SeenSet
	ref := make(map[MessageID]bool)
	for i := 0; i < 20000; i++ {
		id := MessageID(src.Intn(2 * seenBitmapIDs))
		if src.Intn(4) == 0 {
			id = MessageID(src.Intn(800)+1)<<32 | MessageID(src.Intn(4))
		}
		if got, want := s.Add(id), !ref[id]; got != want {
			t.Fatalf("step %d: Add(%d) = %v, want %v", i, id, got, want)
		}
		ref[id] = true
	}
}
