package pipeline

// SplitChunks slices a byte count into k near-equal pipeline chunks. The
// first k-1 chunks are the even split and the last absorbs the floating
// point remainder, so the chunks are guaranteed to sum to exactly bytes —
// for adversarial sizes included (the remainder is computed by
// subtraction, never by accumulation). No chunk is negative: if rounding
// overshoots, the last chunk is clamped at zero and the overshoot is
// taken back from the previous chunk.
//
// The engine's one schedule writer splits every staged path through it,
// and UpdateTo re-splits patched shares through it, so a path's chunk
// decomposition is identical whether it runs eagerly, is compiled into a
// graph, or is patched into an existing graph.
func SplitChunks(bytes float64, k int) []float64 {
	if k < 1 {
		k = 1
	}
	if bytes < 0 {
		bytes = 0
	}
	out := make([]float64, k)
	base := bytes / float64(k)
	var used float64
	for i := 0; i < k-1; i++ {
		out[i] = base
		used += base
	}
	last := bytes - used
	if last < 0 {
		// Float accumulation overshot the total; pull the difference back
		// from the previous chunk so the sum stays exact and nonnegative.
		if k > 1 {
			out[k-2] += last
		}
		last = 0
	}
	out[k-1] = last
	return out
}
