package main

// Ground-truth oracles: brute force in plain Go over the generated rows,
// sharing no code with the program under test. Set-up cross-checks each of
// them once against the program's own exact answer and aborts the run on a
// mismatch, so a wrong oracle and a wrong program cannot agree by accident
// of shared code.

// skybandLabels marks the points dominated by at least one and fewer than k
// others: the query groups the join of each point with its dominators, so
// a point nobody dominates forms no group and is not counted.
func skybandLabels(d []point, k int) []bool {
	labels := make([]bool, len(d))
	for i, p := range d {
		dom := 0
		for _, q := range d {
			if q.x >= p.x && q.y >= p.y && (q.x > p.x || q.y > p.y) {
				dom++
			}
		}
		labels[i] = dom >= 1 && dom < k
	}
	return labels
}

// skybandTruth counts the skyband-k points overall and per region.
func skybandTruth(d []point, k int) (total int, byRegion map[string]int) {
	byRegion = make(map[string]int)
	for i, in := range skybandLabels(d, k) {
		if in {
			total++
			byRegion[d[i].region]++
		}
	}
	return total, byRegion
}

// existsTruth counts the D rows with at least m joining R rows whose v
// exceeds t.
func existsTruth(d []point, r []rrow, t float64, m int) int {
	hits := make(map[int64]int)
	for _, row := range r {
		if row.v > t {
			hits[row.key]++
		}
	}
	total := 0
	for _, p := range d {
		if hits[p.id] >= m && m >= 1 {
			total++
		}
	}
	return total
}

// ellipseLabel is the UDF predicate of udf_learn: inside an axis-aligned
// ellipse, blurred by per-object noise fixed at generation time.
func ellipseLabel(x, y, noise float64) bool {
	return x*x/0.49+y*y/0.16+0.15*noise < 1
}

// udfTruth labels every object by brute force.
func udfTruth(u *udfData) (labels []bool, positives int) {
	labels = make([]bool, len(u.feats))
	for i := range labels {
		if labels[i] = u.pred(i); labels[i] {
			positives++
		}
	}
	return labels, positives
}

// liveTruth counts the live items with more than c events.
func (l *liveData) liveTruth(c int) int {
	total := 0
	for id := range l.items {
		if l.counts[id] > c {
			total++
		}
	}
	return total
}
