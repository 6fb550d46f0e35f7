package main

// The oracle is the benchmark's own model of the data the server holds:
// its copy of the corpus plus its record of every add and delete. It
// answers queries by brute force and checks the program's answers
// without calling any of the program's packages.

import (
	"fmt"
	"math"
	"sort"
	"strconv"
	"strings"
)

// tokens splits text into lower-case runs of ASCII letters and digits,
// the way the engine's default analyzer does for the generated corpora.
func tokens(text string) []string {
	var out []string
	start := -1
	for i := 0; i <= len(text); i++ {
		alnum := i < len(text) && (text[i] >= 'a' && text[i] <= 'z' || text[i] >= 'A' && text[i] <= 'Z' || text[i] >= '0' && text[i] <= '9')
		switch {
		case alnum && start < 0:
			start = i
		case !alnum && start >= 0:
			out = append(out, strings.ToLower(text[start:i]))
			start = -1
		}
	}
	return out
}

// obj is the oracle's copy of one object.
type obj struct {
	id    uint64
	x, y  float64
	text  string
	terms []int32 // sorted distinct word ids
	live  bool
}

type oracle struct {
	words map[string]int32
	objs  map[uint64]*obj
	order []*obj // insertion order, deleted objects included
	nlive int
}

func newOracle() *oracle {
	return &oracle{words: make(map[string]int32), objs: make(map[uint64]*obj)}
}

// wordID returns the id of w, or -1 if no object ever contained it.
func (o *oracle) wordID(w string) int32 {
	if id, ok := o.words[strings.ToLower(w)]; ok {
		return id
	}
	return -1
}

func (o *oracle) add(id uint64, x, y float64, text string) error {
	if _, dup := o.objs[id]; dup {
		return fmt.Errorf("object id %d assigned twice", id)
	}
	set := make(map[int32]bool)
	for _, t := range tokens(text) {
		wid, ok := o.words[t]
		if !ok {
			wid = int32(len(o.words))
			o.words[t] = wid
		}
		set[wid] = true
	}
	terms := make([]int32, 0, len(set))
	for w := range set {
		terms = append(terms, w)
	}
	sort.Slice(terms, func(i, j int) bool { return terms[i] < terms[j] })
	ob := &obj{id: id, x: x, y: y, text: text, terms: terms, live: true}
	o.objs[id] = ob
	o.order = append(o.order, ob)
	o.nlive++
	return nil
}

func (o *oracle) del(id uint64) error {
	ob := o.objs[id]
	if ob == nil || !ob.live {
		return fmt.Errorf("delete of object %d, which is not live", id)
	}
	ob.live = false
	o.nlive--
	return nil
}

func (ob *obj) has(wid int32) bool {
	i := sort.Search(len(ob.terms), func(i int) bool { return ob.terms[i] >= wid })
	return i < len(ob.terms) && ob.terms[i] == wid
}

func (ob *obj) dist(x, y float64) float64 {
	dx, dy := x-ob.x, y-ob.y
	return math.Sqrt(dx*dx + dy*dy)
}

// expr is a boolean keyword expression over object words.
type expr interface {
	// compile resolves the expression's words against the oracle's
	// vocabulary into a predicate over objects.
	compile(o *oracle) pred
	// skql renders the expression in SKQL syntax.
	skql() string
}

type pred func(ob *obj) bool

type term string
type not struct{ x expr }
type and []expr
type or []expr

func (t term) compile(o *oracle) pred {
	id := o.wordID(string(t))
	return func(ob *obj) bool { return id >= 0 && ob.has(id) }
}

func (n not) compile(o *oracle) pred {
	x := n.x.compile(o)
	return func(ob *obj) bool { return !x(ob) }
}

func (a and) compile(o *oracle) pred {
	ps := compileAll(o, a)
	return func(ob *obj) bool {
		for _, p := range ps {
			if !p(ob) {
				return false
			}
		}
		return true
	}
}

func (a or) compile(o *oracle) pred {
	ps := compileAll(o, a)
	return func(ob *obj) bool {
		for _, p := range ps {
			if p(ob) {
				return true
			}
		}
		return false
	}
}

func compileAll(o *oracle, es []expr) []pred {
	ps := make([]pred, len(es))
	for i, e := range es {
		ps[i] = e.compile(o)
	}
	return ps
}

func (t term) skql() string { return strconv.Quote(string(t)) }
func (n not) skql() string  { return "NOT " + paren(n.x) }
func (a and) skql() string  { return join(a, " AND ") }
func (a or) skql() string   { return join(a, " OR ") }

// paren renders e as an operand of AND, OR or NOT; NOT binds tighter
// than both.
func paren(e expr) string {
	switch e.(type) {
	case term, not:
		return e.skql()
	}
	return "(" + e.skql() + ")"
}

func join(es []expr, sep string) string {
	parts := make([]string, len(es))
	for i, e := range es {
		parts[i] = paren(e)
	}
	return strings.Join(parts, sep)
}

// allOf is the AND of the keywords (the /search semantics).
func allOf(words []string) expr {
	a := make(and, len(words))
	for i, w := range words {
		a[i] = term(w)
	}
	return a
}

// anyOf is the OR of the keywords (what a ranked answer must contain).
func anyOf(words []string) expr {
	a := make(or, len(words))
	for i, w := range words {
		a[i] = term(w)
	}
	return a
}

// hit is one expected distance-first answer.
type hit struct {
	id   uint64
	dist float64
}

// topK answers a distance-first query by brute force: the k live
// objects satisfying e nearest to (x, y), ties broken by smaller id.
func (o *oracle) topK(k int, x, y float64, e expr) []hit {
	match := e.compile(o)
	before := func(a, b hit) bool { return a.dist < b.dist || a.dist == b.dist && a.id < b.id }
	hs := make([]hit, 0, k+1) // the best so far, in order
	for _, ob := range o.order {
		if !ob.live || !match(ob) {
			continue
		}
		h := hit{ob.id, ob.dist(x, y)}
		if len(hs) == k && !before(h, hs[k-1]) {
			continue
		}
		i := sort.Search(len(hs), func(i int) bool { return before(h, hs[i]) })
		hs = append(hs, hit{})
		copy(hs[i+1:], hs[i:])
		hs[i] = h
		if len(hs) > k {
			hs = hs[:k]
		}
	}
	return hs
}

// rect is an inclusive axis-aligned rectangle.
type rect struct{ x0, y0, x1, y1 float64 }

func (r rect) has(ob *obj) bool {
	return ob.x >= r.x0 && ob.x <= r.x1 && ob.y >= r.y0 && ob.y <= r.y1
}

// count answers COUNT ... WITHIN by brute force.
func (o *oracle) count(r rect, e expr) int {
	match := e.compile(o)
	n := 0
	for _, ob := range o.order {
		if ob.live && r.has(ob) && match(ob) {
			n++
		}
	}
	return n
}

// matching counts the live objects satisfying e.
func (o *oracle) matching(e expr) int {
	match := e.compile(o)
	n := 0
	for _, ob := range o.order {
		if ob.live && match(ob) {
			n++
		}
	}
	return n
}

// result is one answer as the server reports it.
type result struct {
	Object struct {
		ID    uint64
		Point []float64
		Text  string
	}
	Dist  float64
	Score float64
}

// distTol is the slack allowed between two computations of one distance.
func distTol(d float64) float64 { return 1e-9 * math.Max(1, d) }

// checkObject checks that a returned object is live and equals the
// oracle's copy.
func (o *oracle) checkObject(r *result) (*obj, error) {
	ob := o.objs[r.Object.ID]
	switch {
	case ob == nil:
		return nil, fmt.Errorf("object %d is unknown", r.Object.ID)
	case !ob.live:
		return nil, fmt.Errorf("object %d was deleted", r.Object.ID)
	case len(r.Object.Point) != 2 || r.Object.Point[0] != ob.x || r.Object.Point[1] != ob.y:
		return nil, fmt.Errorf("object %d has point %v, want [%v %v]", ob.id, r.Object.Point, ob.x, ob.y)
	case r.Object.Text != ob.text:
		return nil, fmt.Errorf("object %d has other text", ob.id)
	}
	return ob, nil
}

// checkTop checks a distance-first answer. Every result must be a live
// object satisfying e at its reported distance, in non-decreasing
// distance order, and the distances must equal those of want, the
// brute-force answer; so the answer is exact up to the order of
// objects at equal distance. With want nil only those properties and
// the answer size n are checked.
func (o *oracle) checkTop(got []result, want []hit, n int, x, y float64, e expr) error {
	if want != nil {
		n = len(want)
	}
	if len(got) != n {
		return fmt.Errorf("%d results, want %d", len(got), n)
	}
	match := e.compile(o)
	seen := make(map[uint64]bool, len(got))
	for i := range got {
		r := &got[i]
		ob, err := o.checkObject(r)
		if err != nil {
			return err
		}
		if seen[ob.id] {
			return fmt.Errorf("object %d returned twice", ob.id)
		}
		seen[ob.id] = true
		if !match(ob) {
			return fmt.Errorf("object %d does not match %s", ob.id, e.skql())
		}
		d := ob.dist(x, y)
		if math.Abs(r.Dist-d) > distTol(d) {
			return fmt.Errorf("object %d reported at distance %v, is at %v", ob.id, r.Dist, d)
		}
		if i > 0 && r.Dist < got[i-1].Dist-distTol(d) {
			return fmt.Errorf("result %d is nearer than result %d", i, i-1)
		}
		if want != nil && math.Abs(r.Dist-want[i].dist) > distTol(d) {
			return fmt.Errorf("result %d at distance %v, brute force has %v (object %d)", i, r.Dist, want[i].dist, want[i].id)
		}
	}
	return nil
}

// checkRanked checks the properties of a ranked answer: n results,
// scores never increase, and every result is a live object containing
// at least one keyword.
func (o *oracle) checkRanked(got []result, n int, words []string) error {
	if len(got) != n {
		return fmt.Errorf("%d ranked results, want %d", len(got), n)
	}
	some := anyOf(words).compile(o)
	seen := make(map[uint64]bool, len(got))
	for i := range got {
		ob, err := o.checkObject(&got[i])
		if err != nil {
			return err
		}
		if seen[ob.id] {
			return fmt.Errorf("object %d ranked twice", ob.id)
		}
		seen[ob.id] = true
		if !some(ob) {
			return fmt.Errorf("ranked object %d contains none of %v", ob.id, words)
		}
		if i > 0 && got[i].Score > got[i-1].Score {
			return fmt.Errorf("ranked score rises at result %d: %v after %v", i, got[i].Score, got[i-1].Score)
		}
	}
	return nil
}
