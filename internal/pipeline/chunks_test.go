package pipeline

import (
	"math"
	"testing"
)

// TestSplitChunksExactSum checks the invariant both executors rely on:
// the chunks sum to exactly the requested byte count (bitwise, not within
// a tolerance) and no chunk is negative — including for adversarial
// floating-point sizes where naive accumulation drifts.
func TestSplitChunksExactSum(t *testing.T) {
	cases := []struct {
		name  string
		bytes float64
		k     int
	}{
		{"even split", 1 << 20, 4},
		{"single chunk", 12345, 1},
		{"indivisible", 100, 3},
		{"one byte many chunks", 1, 7},
		{"large odd", 1<<30 + 1, 7},
		{"tiny fraction", 0.1, 3},
		{"sub-ulp remainder", math.Nextafter(1, 2), 3},
		{"huge", 1e18, 13},
		{"zero bytes", 0, 5},
		{"negative clamped", -50, 3},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			sizes := SplitChunks(tc.bytes, tc.k)
			if len(sizes) != tc.k {
				t.Fatalf("len = %d, want %d", len(sizes), tc.k)
			}
			var sum float64
			for i, s := range sizes {
				if s < 0 {
					t.Fatalf("chunk %d negative: %v", i, s)
				}
				sum += s
			}
			want := tc.bytes
			if want < 0 {
				want = 0
			}
			if sum != want {
				t.Fatalf("sum = %v, want exactly %v (diff %v)", sum, want, sum-want)
			}
			// The first k-1 chunks are the even split; only the last
			// absorbs the remainder (plus at most one clamp neighbour).
			for i := 0; i+2 < len(sizes); i++ {
				if sizes[i] != sizes[0] {
					t.Fatalf("chunk %d = %v differs from base %v", i, sizes[i], sizes[0])
				}
			}
		})
	}
}

func TestSplitChunksDegenerateK(t *testing.T) {
	for _, k := range []int{0, -3} {
		sizes := SplitChunks(400, k)
		if len(sizes) != 1 || sizes[0] != 400 {
			t.Fatalf("k=%d: got %v, want [400]", k, sizes)
		}
	}
}
