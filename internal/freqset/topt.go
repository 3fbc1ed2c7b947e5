package freqset

// TopT adds to s the t frequencies f in [1..len(scores)-1] with the
// largest scores[f] (scores[0] is unused). Ties go to the lower frequency
// and a NaN score is never chosen; when t is at least the number of
// non-NaN scores, all of them are added. It returns buf, reused, holding
// the chosen frequencies by decreasing score.
//
// The choice is exactly the greedy rescan's — t times, add the first
// unchosen frequency of strictly highest score — for the nonnegative
// counts and probability products the history-reading jammers score
// with, but found in one pass: buf keeps the best t so far ordered by
// (score desc, frequency asc), and a new frequency enters by insertion
// only if it beats the last. Once buf has capacity t, TopT does not
// allocate.
func TopT[S int | float64](s *Set, scores []S, t int, buf []int) []int {
	top := buf[:0]
	if t <= 0 {
		return top
	}
	for f := 1; f < len(scores); f++ {
		v := scores[f]
		if v != v { // NaN
			continue
		}
		k := len(top)
		if k < t {
			top = append(top, f)
		} else if v > scores[top[k-1]] {
			k-- // v evicts the last entry
		} else {
			continue
		}
		for k > 0 && scores[top[k-1]] < v {
			top[k] = top[k-1]
			k--
		}
		top[k] = f
	}
	for _, f := range top {
		s.Add(f)
	}
	return top
}
