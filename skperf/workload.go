package main

import (
	"fmt"
	"math/rand"
	"sort"
	"strconv"
)

// kind is the type of one request.
type kind int

const (
	kSearch kind = iota // GET /search: distance-first top-k, AND semantics
	kRanked             // GET /ranked: general ranked top-k
	kGet                // GET /objects/{id}
	kQuery              // POST /query: one SKQL statement
	kAdd                // POST /objects
	kDelete             // DELETE /objects/{id}
)

var kindNames = [...]string{"search", "ranked", "get", "query", "add", "delete"}

func (k kind) String() string { return kindNames[k] }

func (k kind) write() bool { return k == kAdd || k == kDelete }

// query is one SKQL statement of the skql and rw workloads.
type query struct {
	class string // TOP shape, RANKED or COUNT, for reports
	proj  string // TOP, RANKED or COUNT
	k     int
	x, y  float64
	match expr
	words []string // RANKED: the scoring keywords
	area  rect     // COUNT: the WITHIN rectangle
}

func (q *query) String() string {
	switch q.proj {
	case "COUNT":
		return fmt.Sprintf("SELECT COUNT MATCH %s WITHIN rect(%s, %s, %s, %s)",
			q.match.skql(), num(q.area.x0), num(q.area.y0), num(q.area.x1), num(q.area.y1))
	default:
		return fmt.Sprintf("SELECT %s %d NEAR (%s, %s) MATCH %s", q.proj, q.k, num(q.x), num(q.y), q.match.skql())
	}
}

func num(v float64) string { return strconv.FormatFloat(v, 'f', -1, 64) }

// op is one request of a workload's sequence.
type op struct {
	kind  kind
	k     int
	x, y  float64
	words []string // search, ranked
	q     *query   // query
	id    uint64   // get
	doc   doc      // add
	// Read-only workloads fix the brute-force answer before the run, so
	// every response is checked against it: want for distance-first
	// answers, n for the size of ranked answers and COUNT.
	want []hit
	n    int
}

// workload is a named, seeded request sequence. A run repeats round,
// the same operations each time, in whole rounds.
type workload struct {
	name   string
	spec   corpusSpec
	shards int
	wal    bool
	conns  int
	round  []op
	// probe is a burst of writes issued after the timed window and the
	// checks on read-only workloads: they report write latency too.
	probe []op
	// readOnly workloads never change the data during the timed window.
	readOnly bool
	// prefill adds objects before the window so that deletes of run-made
	// objects always have a target.
	prefill int
}

// Round sizes. Each timed run repeats its round as often as the window
// allows; see README.md for the resulting request counts. A larger
// round averages the heavy queries of more seeds' draws into read_p99_ms.
const (
	searchRound = 2400
	skqlRound   = 1000
	rwRound     = 400
	probeWrites = 1500
	rwPrefill   = 16
	// warmOps is how much of the round the warm-up replays: enough to
	// fill the node caches and build the SKQL sidecar index.
	warmOps = 600
)

// warmup is the head of the round that warms a server up.
func (w *workload) warmup() []op { return w.round[:min(warmOps, len(w.round))] }

var searchKs = []int{5, 10, 20, 50}
var skqlKs = []int{5, 10, 20}

// index is the benchmark's inverted index over the base corpus, used to
// pick keyword sets by document frequency.
type index struct {
	n        int
	postings map[string][]int32 // sorted doc numbers
	docWords [][]string         // distinct words per document
}

func newIndex(docs []doc) *index {
	ix := &index{n: len(docs), postings: make(map[string][]int32), docWords: make([][]string, len(docs))}
	for i, d := range docs {
		seen := make(map[string]bool)
		for _, t := range tokens(d.text) {
			if !seen[t] {
				seen[t] = true
				ix.postings[t] = append(ix.postings[t], int32(i))
				ix.docWords[i] = append(ix.docWords[i], t)
			}
		}
	}
	return ix
}

func (ix *index) df(w string) int { return len(ix.postings[w]) }

// jointDF counts the documents containing every word.
func (ix *index) jointDF(words []string) int {
	if len(words) == 0 {
		return ix.n
	}
	ws := append([]string(nil), words...)
	sort.Slice(ws, func(i, j int) bool { return ix.df(ws[i]) < ix.df(ws[j]) })
	cur := ix.postings[ws[0]]
	for _, w := range ws[1:] {
		next := ix.postings[w]
		var out []int32
		j := 0
		for _, d := range cur {
			for j < len(next) && next[j] < d {
				j++
			}
			if j < len(next) && next[j] == d {
				out = append(out, d)
			}
		}
		cur = out
	}
	return len(cur)
}

// Frequency bands, as shares of the corpus holding a word.
const (
	commonShare     = 0.05 // common: at least this share
	rareShare       = 0.01 // rare: at most this share
	ubiquitousShare = 0.5  // never negated: above this share
)

type band int

const (
	bandCommon band = iota
	bandMid
	bandRare
)

func (ix *index) band(w string) band {
	switch s := float64(ix.df(w)) / float64(ix.n); {
	case s >= commonShare:
		return bandCommon
	case s > rareShare:
		return bandMid
	default:
		return bandRare
	}
}

// picker draws query parts from a seeded stream.
type picker struct {
	rng  *rand.Rand
	ix   *index
	docs []doc
}

// wordOf returns a random word of document d in band b, or "".
func (p *picker) wordOf(d int, b band, exclude []string) string {
	var cands []string
	for _, w := range p.ix.docWords[d] {
		if p.ix.band(w) == b && !contains(exclude, w) {
			cands = append(cands, w)
		}
	}
	if len(cands) == 0 {
		return ""
	}
	return cands[p.rng.Intn(len(cands))]
}

func contains(ws []string, w string) bool {
	for _, x := range ws {
		if x == w {
			return true
		}
	}
	return false
}

// near returns a query point near document d, rounded to centimetres so
// that its decimal form is exact for both the server and the oracle.
func (p *picker) near(d int) (float64, float64) {
	r := func(v float64) float64 {
		f, _ := strconv.ParseFloat(strconv.FormatFloat(v, 'f', 2, 64), 64)
		return f
	}
	return r(p.docs[d].x + p.rng.NormFloat64()*300), r(p.docs[d].y + p.rng.NormFloat64()*300)
}

// keywords draws one keyword per band, all from one anchor document,
// whose joint document frequency is at least k. It gives up (ok false)
// when the bands rarely co-occur that often.
func (p *picker) keywords(k int, bands []band) (d int, ws []string, ok bool) {
	for try := 0; try < 200; try++ {
		d = p.rng.Intn(len(p.docs))
		ws = ws[:0]
		for _, b := range bands {
			w := p.wordOf(d, b, ws)
			if w == "" {
				break
			}
			ws = append(ws, w)
		}
		if len(ws) == len(bands) && p.ix.jointDF(ws) >= k {
			return d, ws, true
		}
	}
	return 0, nil, false
}

// mustKeywords is keywords for band sets that always co-occur often
// enough (common and mid-band words).
func (p *picker) mustKeywords(k int, bands []band) (int, []string) {
	for {
		if d, ws, ok := p.keywords(k, bands); ok {
			return d, ws
		}
	}
}

// searchKeywords draws n keywords from random frequency bands,
// redrawing the bands until the set matches at least k objects.
func (p *picker) searchKeywords(k, n int) (int, []string) {
	for {
		if d, ws, ok := p.keywords(k, p.randomBands(n)); ok {
			return d, ws
		}
	}
}

// stratified returns n values spread evenly over [0, 1), in seeded
// random order. Drawing classes, k and keyword counts from them gives
// every seed's round the same mix, so seeds differ only in the requests
// themselves.
func (p *picker) stratified(n int) []float64 {
	u := make([]float64, n)
	for i := range u {
		u[i] = (float64(i) + 0.5) / float64(n)
	}
	p.rng.Shuffle(n, func(i, j int) { u[i], u[j] = u[j], u[i] })
	return u
}

// pick returns the element of xs that u in [0, 1) selects.
func pick[T any](xs []T, u float64) T { return xs[int(u*float64(len(xs)))] }

// randomBands draws n bands: half common, a third mid, the rest rare.
func (p *picker) randomBands(n int) []band {
	bs := make([]band, n)
	for i := range bs {
		switch r := p.rng.Float64(); {
		case r < 0.5:
			bs[i] = bandCommon
		case r < 0.85:
			bs[i] = bandMid
		default:
			bs[i] = bandRare
		}
	}
	return bs
}

// countIn counts the documents in r holding every word.
func (p *picker) countIn(words []string, r rect) int {
	n := 0
	for _, d := range p.ix.postings[words[0]] {
		doc := p.docs[d]
		if doc.x < r.x0 || doc.x > r.x1 || doc.y < r.y0 || doc.y > r.y1 {
			continue
		}
		all := true
		for _, w := range words[1:] {
			all = all && contains(p.ix.docWords[d], w)
		}
		if all {
			n++
		}
	}
	return n
}

// rareWord draws one word whose document frequency lies in [k, rare
// share]; the planner sends such terms to the inverted-index sidecar.
func (p *picker) rareWord(k int) (int, string) {
	for {
		d := p.rng.Intn(len(p.docs))
		w := p.wordOf(d, bandRare, nil)
		if w != "" && p.ix.df(w) >= k {
			return d, w
		}
	}
}

// notWord draws a word of another document to negate: present in the
// corpus but far from ubiquitous, so MATCH a AND NOT b stays cheap.
func (p *picker) notWord(exclude []string) string {
	for {
		d := p.rng.Intn(len(p.docs))
		w := p.wordOf(d, bandCommon, exclude)
		if w != "" && float64(p.ix.df(w)) <= ubiquitousShare*float64(p.ix.n) {
			return w
		}
	}
}

// searchOps draws the search workload's round: 60% distance-first
// top-k, 25% ranked top-k, 15% lookups of ids earlier answers returned.
func (p *picker) searchOps(n int) []op {
	cls, ks, nkw := p.stratified(n), p.stratified(n), p.stratified(n)
	// Lookups take their ids from earlier distance-first answers, so the
	// round opens with a distance-first search.
	for i := range cls {
		if cls[i] >= 0.40 {
			cls[0], cls[i] = cls[i], cls[0]
			break
		}
	}
	ops := make([]op, n)
	for i := range ops {
		if cls[i] < 0.15 {
			// The id comes from the brute-force answer of an earlier
			// search, filled in when the answers are fixed.
			ops[i] = op{kind: kGet}
			continue
		}
		k := pick(searchKs, ks[i])
		d, ws := p.searchKeywords(k, 1+int(nkw[i]*3))
		x, y := p.near(d)
		kd := kSearch
		if cls[i] < 0.40 {
			kd = kRanked
		}
		ops[i] = op{kind: kd, k: k, x: x, y: y, words: ws}
	}
	return ops
}

// skqlQuery draws one SKQL statement of the skql workload's mix: u
// selects the statement's class.
func (p *picker) skqlQuery(u float64, k int) *query {
	q := &query{proj: "TOP", k: k}
	var d int
	switch {
	case u < 0.25: // two common terms: IR²
		var ws []string
		d, ws = p.mustKeywords(k, []band{bandCommon, bandCommon})
		q.class, q.match = "top-and", allOf(ws)
	case u < 0.40: // one rare term: inverted-index sidecar
		var w string
		d, w = p.rareWord(k)
		q.class, q.match = "top-rare", term(w)
	case u < 0.55: // a OR b over mid-band terms
		var a, b []string
		d, a = p.mustKeywords(k, []band{bandMid})
		_, b = p.mustKeywords(1, []band{bandMid})
		q.class, q.match = "top-or", or{term(a[0]), term(b[0])}
	case u < 0.70: // common AND NOT non-ubiquitous
		var ws []string
		for {
			d, ws = p.mustKeywords(k, []band{bandCommon})
			nw := p.notWord(ws)
			q.match = and{term(ws[0]), not{term(nw)}}
			if p.ix.jointDF(ws)-p.ix.jointDF([]string{ws[0], nw}) >= k {
				break
			}
		}
		q.class = "top-not"
	case u < 0.85: // ranked over two terms
		var ws []string
		d, ws = p.mustKeywords(k, []band{bandCommon, bandMid})
		q.class, q.proj, q.words, q.match = "ranked", "RANKED", ws, anyOf(ws)
	default: // COUNT of two common terms within a 700 × 700 square
		for {
			var ws []string
			d, ws = p.mustKeywords(1, []band{bandCommon, bandCommon})
			x, y := p.near(d)
			q.class, q.proj, q.k, q.match = "count", "COUNT", 0, allOf(ws)
			q.area = rect{x - 350, y - 350, x + 350, y + 350}
			if p.countIn(ws, q.area) > 0 {
				return q
			}
		}
	}
	q.x, q.y = p.near(d)
	return q
}

// rwQuery draws one SKQL read of the rw workload: a rare term (to the
// sidecar) or one common term (to IR²).
func (p *picker) rwQuery(rare bool, k int) *query {
	q := &query{proj: "TOP", k: k}
	var d int
	if rare {
		var w string
		d, w = p.rareWord(k)
		q.class, q.match = "top-rare", term(w)
	} else {
		var ws []string
		d, ws = p.mustKeywords(k, []band{bandCommon})
		q.class, q.match = "top-common", allOf(ws)
	}
	q.x, q.y = p.near(d)
	return q
}

// rwOps draws the rw round: 70% reads, 30% writes, one seeded
// interleaving. Reads are 55% distance-first search, 42% SKQL over a
// common term, 3% SKQL over a rare term. Writes alternate adds of new
// objects and deletes of the oldest object the run added.
func (p *picker) rwOps(n int) []op {
	ops := make([]op, n)
	nw := n * 3 / 10
	nrare := (n - nw) * 3 / 100
	nquery := (n - nw) * 42 / 100
	kinds := make([]kind, 0, n)
	for i := 0; i < nw; i++ {
		kinds = append(kinds, kAdd)
	}
	for i := 0; i < nrare+nquery; i++ {
		kinds = append(kinds, kQuery)
	}
	for len(kinds) < n {
		kinds = append(kinds, kSearch)
	}
	p.rng.Shuffle(len(kinds), func(i, j int) { kinds[i], kinds[j] = kinds[j], kinds[i] })
	ks, nkw := p.stratified(n), p.stratified(n)
	writes, queries := 0, 0
	for i, kd := range kinds {
		switch kd {
		case kAdd:
			if writes%2 == 1 {
				ops[i] = op{kind: kDelete}
			} else {
				ops[i] = op{kind: kAdd}
			}
			writes++
		case kQuery:
			// Spread the rare statements evenly over the queries.
			rare := queries*nrare/(nrare+nquery) != (queries+1)*nrare/(nrare+nquery)
			ops[i] = op{kind: kQuery, q: p.rwQuery(rare, pick(skqlKs, ks[i]))}
			queries++
		default:
			k := pick(searchKs, ks[i])
			d, ws := p.searchKeywords(k, 1+int(nkw[i]*3))
			x, y := p.near(d)
			ops[i] = op{kind: kSearch, k: k, x: x, y: y, words: ws}
		}
	}
	return ops
}

// newWorkload builds the named workload from seed: the base corpus and
// the round's requests.
func newWorkload(name string, seed int64) (*workload, []doc, *generator, error) {
	w := &workload{name: name, conns: 2, readOnly: true}
	switch name {
	case "search":
		w.spec = restaurantsLarge
	case "skql":
		w.spec, w.shards = hotels, 2
	case "rw":
		w.spec, w.wal, w.conns, w.readOnly, w.prefill = restaurants, true, 1, false, rwPrefill
	default:
		return nil, nil, nil, fmt.Errorf("unknown workload %q (want search, skql or rw)", name)
	}
	gen := newGenerator(w.spec, seed)
	docs := gen.corpus()
	p := &picker{rng: rand.New(rand.NewSource(seed ^ 0x5eed)), ix: newIndex(docs), docs: docs}
	switch name {
	case "search":
		w.round = p.searchOps(searchRound)
	case "skql":
		w.round = make([]op, skqlRound)
		cls, ks := p.stratified(skqlRound), p.stratified(skqlRound)
		for i := range w.round {
			w.round[i] = op{kind: kQuery, q: p.skqlQuery(cls[i], pick(skqlKs, ks[i]))}
		}
	case "rw":
		w.round = p.rwOps(rwRound)
	}
	if w.readOnly {
		for i := 0; i < probeWrites; i++ {
			w.probe = append(w.probe, op{kind: kAdd, doc: gen.next()})
		}
		for i := 0; i < probeWrites; i++ {
			w.probe = append(w.probe, op{kind: kDelete})
		}
	}
	return w, docs, gen, nil
}
