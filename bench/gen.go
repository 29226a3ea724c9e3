package main

import (
	"math"
	"math/rand"
	"strconv"
	"strings"
)

// Generators turn the workload seed into plain Go rows. The program under
// test only ever sees what is built from these rows (tables, CSV uploads,
// feature slices); the seed itself never reaches it.

// SQL texts of the counting queries (the paper's skyband and a
// hash-indexable EXISTS equi-join), shared by sdk_cold, serve_mix and
// shard_scatter.
const (
	skybandSQL = `SELECT o1.id FROM D o1, D o2 WHERE o2.x >= o1.x AND o2.y >= o1.y AND (o2.x > o1.x OR o2.y > o1.y) GROUP BY o1.id HAVING COUNT(*) < k`
	existsSQL  = `SELECT d.id FROM D d, R r WHERE d.id = r.key AND r.v > t GROUP BY d.id HAVING COUNT(*) >= m`
	groupedSQL = `SELECT region, COUNT(*) FROM (SELECT o1.id, o1.region FROM D o1, D o2 WHERE o2.x >= o1.x AND o2.y >= o1.y AND (o2.x > o1.x OR o2.y > o1.y) GROUP BY o1.id, o1.region HAVING COUNT(*) < k) GROUP BY region`
	liveSQL    = `SELECT i.id FROM items i, events e WHERE e.item = i.id GROUP BY i.id HAVING COUNT(*) > c`

	schemaD      = "id:int,x:float,y:float,region:string"
	schemaR      = "key:int,v:float"
	schemaItems  = "id:int,f1:float,f2:float"
	schemaEvents = "eid:int,item:int,v:float"
)

var regions = [4]string{"east", "north", "south", "west"}

type point struct {
	id     int64
	x, y   float64
	region string
}

type rrow struct {
	key int64
	v   float64
}

// sqlData is the D/R table pair of the SQL workloads. Sizing rule: every
// counted query has selectivity 10–40 % and spends at least 100 labels per
// count, and D is sized so a cold count costs about 50 ms on the seed
// code (R ≈ 5× D), which gives a ten-second run a few hundred ops now and
// thousands once the per-execution fixed cost is gone.
type sqlData struct {
	d []point
	r []rrow
}

func genSQLData(seed uint64, n int) *sqlData {
	rng := rand.New(rand.NewSource(int64(mix(seed, 0x5d1))))
	out := &sqlData{d: make([]point, n)}
	for i := range out.d {
		p := point{id: int64(i), x: rng.Float64(), y: rng.Float64(), region: regions[rng.Intn(len(regions))]}
		out.d[i] = p
		// The number of R rows per key grows with x, so the EXISTS label is
		// learnable from D's columns (as the paper's join predicates are),
		// and averages five per key.
		for e := int(math.Round(10 * p.x)); e > 0; e-- {
			out.r = append(out.r, rrow{key: p.id, v: 10 * rng.Float64()})
		}
	}
	return out
}

func fmtF(f float64) string { return strconv.FormatFloat(f, 'g', -1, 64) }

// csvD and csvR render the tables as CSV with a header row; the same text
// builds in-process tables and is uploaded to servers, so every process
// under test holds bit-identical data.
func (s *sqlData) csvD() string {
	var b strings.Builder
	b.WriteString("id,x,y,region\n")
	for _, p := range s.d {
		b.WriteString(strconv.FormatInt(p.id, 10) + "," + fmtF(p.x) + "," + fmtF(p.y) + "," + p.region + "\n")
	}
	return b.String()
}

func (s *sqlData) csvR() string {
	var b strings.Builder
	b.WriteString("key,v\n")
	for _, r := range s.r {
		b.WriteString(strconv.FormatInt(r.key, 10) + "," + fmtF(r.v) + "\n")
	}
	return b.String()
}

// udfData is the paper's UDF case: two features per object and a cheap Go
// callback whose label is a noisy ellipse test, so a classifier can learn
// most but not all of it.
type udfData struct {
	feats [][]float64
	noise []float64 // per-object blur, fixed at generation
}

func genUDFData(seed uint64, n int) *udfData {
	rng := rand.New(rand.NewSource(int64(mix(seed, 0x0df))))
	out := &udfData{feats: make([][]float64, n), noise: make([]float64, n)}
	for i := range out.feats {
		out.feats[i] = []float64{2*rng.Float64() - 1, 2*rng.Float64() - 1}
		out.noise[i] = rng.NormFloat64()
	}
	return out
}

// pred is the user-defined predicate handed to the program.
func (u *udfData) pred(i int) bool {
	return ellipseLabel(u.feats[i][0], u.feats[i][1], u.noise[i])
}

// liveData is the items/events pair of live_refresh, mirrored in plain Go
// so ground truth can follow every delta the workload applies.
type liveData struct {
	rng    *rand.Rand
	items  map[int64]itemRow // live items by id
	ids    []int64           // live ids (swap-delete keeps picks O(1))
	counts map[int64]int     // live events per item id (also for deleted items)
	fifo   []eventRow        // live events, oldest first
	nextID int64
	nextEv int64
}

type itemRow struct {
	id     int64
	f1, f2 float64
}

type eventRow struct {
	eid, item int64
	v         float64
}

func newLiveData(seed uint64) *liveData {
	return &liveData{
		rng:    rand.New(rand.NewSource(int64(mix(seed, 0x11fe)))),
		items:  make(map[int64]itemRow),
		counts: make(map[int64]int),
	}
}

// newItems creates n items with their initial events: item i gets
// floor(f1/12) of them, so "more than c events" tracks f1 — learnable.
func (l *liveData) newItems(n int) ([]itemRow, []eventRow) {
	items := make([]itemRow, 0, n)
	var events []eventRow
	for ; n > 0; n-- {
		it := itemRow{id: l.nextID, f1: 100 * l.rng.Float64(), f2: 100 * l.rng.Float64()}
		l.nextID++
		l.items[it.id] = it
		l.ids = append(l.ids, it.id)
		items = append(items, it)
		for e := int(it.f1 / 12); e > 0; e-- {
			events = append(events, l.event(it.id))
		}
	}
	return items, events
}

func (l *liveData) event(item int64) eventRow {
	e := eventRow{eid: l.nextEv, item: item, v: 10 * l.rng.Float64()}
	l.nextEv++
	l.counts[item]++
	l.fifo = append(l.fifo, e)
	return e
}

// moreEvents appends n events to random live items.
func (l *liveData) moreEvents(n int) []eventRow {
	out := make([]eventRow, n)
	for i := range out {
		out[i] = l.event(l.ids[l.rng.Intn(len(l.ids))])
	}
	return out
}

// expireEvents drops the n oldest events and returns their ids.
func (l *liveData) expireEvents(n int) []int64 {
	if n > len(l.fifo) {
		n = len(l.fifo)
	}
	out := make([]int64, n)
	for i, e := range l.fifo[:n] {
		out[i] = e.eid
		l.counts[e.item]--
	}
	l.fifo = l.fifo[n:]
	return out
}

// touchItem redraws f2 of a random live item and returns the new row.
func (l *liveData) touchItem() itemRow {
	it := l.items[l.ids[l.rng.Intn(len(l.ids))]]
	it.f2 = 100 * l.rng.Float64()
	l.items[it.id] = it
	return it
}

// deleteItem removes a random live item and returns its id.
func (l *liveData) deleteItem() int64 {
	k := l.rng.Intn(len(l.ids))
	id := l.ids[k]
	l.ids[k] = l.ids[len(l.ids)-1]
	l.ids = l.ids[:len(l.ids)-1]
	delete(l.items, id)
	return id
}

func csvEvents(rows []eventRow) string {
	var b strings.Builder
	b.WriteString("eid,item,v\n")
	for _, e := range rows {
		b.WriteString(strconv.FormatInt(e.eid, 10) + "," + strconv.FormatInt(e.item, 10) + "," + fmtF(e.v) + "\n")
	}
	return b.String()
}

func csvItems(rows []itemRow) string {
	var b strings.Builder
	b.WriteString("id,f1,f2\n")
	for _, it := range rows {
		b.WriteString(strconv.FormatInt(it.id, 10) + "," + fmtF(it.f1) + "," + fmtF(it.f2) + "\n")
	}
	return b.String()
}
