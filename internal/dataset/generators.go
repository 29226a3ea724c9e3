package dataset

import (
	"math"
	"strconv"

	"repro/internal/xrand"
)

// SportsSize is the paper's MLB pitching table size (~47,000 player-years).
const SportsSize = 47000

// NeighborsSize is the paper's KDD Cup 1999 sample size (~73,000 records).
const NeighborsSize = 73000

// NeighborsFeatures is the KDD Cup 1999 feature count.
const NeighborsFeatures = 41

// Sports generates a synthetic stand-in for the paper's Type 1 dataset:
// yearly MLB pitching statistics. Each row is one player-year with a latent
// "skill" driving correlated performance columns. The k-skyband query of
// Example 2 runs over (strikeouts, wins): both are right-skewed, positively
// correlated, and heavily tied at low values — the structure that makes
// attribute-grid stratification (SSP) competitive on this dataset for small
// result sizes, as the paper observes in §5.4.2.
func Sports(n int, seed uint64) *Table {
	r := xrand.New(seed)
	schema := Schema{
		{Name: "player_id", Kind: Int},
		{Name: "year", Kind: Int},
		{Name: "wins", Kind: Float},
		{Name: "losses", Kind: Float},
		{Name: "era", Kind: Float},
		{Name: "strikeouts", Kind: Float},
		{Name: "innings", Kind: Float},
		{Name: "games", Kind: Float},
	}
	t := New("sports", schema)
	for i := 0; i < n; i++ {
		// Latent skill in (0,1), beta-like via squaring a uniform: most
		// pitchers are mediocre, a few are stars.
		skill := math.Pow(r.Float64(), 1.6)
		// Role: starters pitch many innings, relievers few.
		starter := r.Bool(0.35)
		var innings float64
		if starter {
			innings = 80 + 140*skill + 20*r.NormFloat64()
		} else {
			innings = 15 + 60*skill + 10*r.NormFloat64()
		}
		if innings < 1 {
			innings = 1
		}
		games := innings/6 + 5*r.Float64()*10
		kRate := 4.5 + 7*skill + 1.2*r.NormFloat64() // strikeouts per 9 innings
		if kRate < 0.5 {
			kRate = 0.5
		}
		so := kRate * innings / 9
		era := 6.2 - 3.4*skill + 0.8*r.NormFloat64()
		if era < 0.5 {
			era = 0.5
		}
		winRate := 0.25 + 0.5*skill
		wins := winRate*innings/9 + 1.5*r.NormFloat64()
		if wins < 0 {
			wins = 0
		}
		losses := (1-winRate)*innings/9 + 1.5*r.NormFloat64()
		if losses < 0 {
			losses = 0
		}
		t.MustAppendRow(
			int64(i/20), int64(1990+i%30),
			math.Round(wins), math.Round(losses),
			math.Round(era*100)/100,
			math.Round(so), math.Round(innings*10)/10,
			math.Round(games),
		)
	}
	return t
}

// Neighbors generates a synthetic stand-in for the paper's Type 2 dataset: a
// sample of KDD Cup 1999 network connections with 41 features. Records form
// dense clusters (normal traffic classes) plus a sprinkling of scattered
// outliers (intrusions). The Example 1 query — count records with at most k
// neighbors within distance d over features (f0, f1) — separates cluster
// cores (many neighbors) from outliers (few), and sweeping d moves the
// selectivity through the paper's XS…XXL regimes.
func Neighbors(n int, seed uint64) *Table {
	r := xrand.New(seed)
	schema := make(Schema, 0, NeighborsFeatures+2)
	schema = append(schema, Column{Name: "conn_id", Kind: Int})
	for j := 0; j < NeighborsFeatures; j++ {
		schema = append(schema, Column{Name: featureName(j), Kind: Float})
	}
	schema = append(schema, Column{Name: "attack", Kind: Int})
	t := New("neighbors", schema)

	// Cluster centers in the (f0, f1) query plane plus per-cluster offsets
	// for the remaining features.
	const clusters = 6
	centers := make([][2]float64, clusters)
	scales := make([]float64, clusters)
	weights := make([]float64, clusters)
	totalW := 0.0
	for c := 0; c < clusters; c++ {
		centers[c] = [2]float64{r.Float64() * 100, r.Float64() * 100}
		scales[c] = 1.5 + 4*r.Float64()
		weights[c] = 0.5 + r.Float64()
		totalW += weights[c]
	}
	const outlierFrac = 0.12
	row := make([]any, len(schema))
	for i := 0; i < n; i++ {
		isOutlier := r.Bool(outlierFrac)
		var x, y float64
		cluster := -1
		if isOutlier {
			x = r.Float64() * 100
			y = r.Float64() * 100
		} else {
			u := r.Float64() * totalW
			for c := 0; c < clusters; c++ {
				u -= weights[c]
				if u <= 0 || c == clusters-1 {
					cluster = c
					break
				}
			}
			x = centers[cluster][0] + scales[cluster]*r.NormFloat64()
			y = centers[cluster][1] + scales[cluster]*r.NormFloat64()
		}
		row[0] = int64(i)
		row[1] = x
		row[2] = y
		for j := 2; j < NeighborsFeatures; j++ {
			base := 0.0
			if cluster >= 0 {
				base = float64((cluster*7+j)%13) - 6
			}
			row[1+j] = base + r.NormFloat64()
		}
		attack := int64(0)
		if isOutlier {
			attack = 1
		}
		row[len(row)-1] = attack
		t.MustAppendRow(row...)
	}
	return t
}

func featureName(j int) string {
	return "f" + strconv.Itoa(j)
}
