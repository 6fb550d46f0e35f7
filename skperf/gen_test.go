package main

import (
	"testing"
)

// TestGeneratedQueriesReachK checks, with the benchmark's oracle, that
// every generated search and SKQL read matches at least k objects, and
// that no negated term is nearly ubiquitous.
func TestGeneratedQueriesReachK(t *testing.T) {
	for _, name := range []string{"search", "skql", "rw"} {
		for _, seed := range []int64{1, 2} {
			w, docs, _, err := newWorkload(name, seed)
			if err != nil {
				t.Fatal(err)
			}
			o := newOracle()
			for i, d := range docs {
				if err := o.add(uint64(i), d.x, d.y, d.text); err != nil {
					t.Fatal(err)
				}
			}
			classes := map[string]int{}
			for i := range w.round {
				op := &w.round[i]
				classes[class(op)]++
				var k, n int
				switch {
				case op.kind == kSearch:
					k, n = op.k, o.matching(allOf(op.words))
				case op.kind == kRanked:
					k, n = op.k, o.matching(anyOf(op.words))
				case op.kind == kQuery && op.q.proj != "COUNT":
					k, n = op.q.k, o.matching(op.q.match)
				case op.kind == kQuery:
					k, n = 1, o.count(op.q.area, op.q.match) // COUNT: at least one
				default:
					continue
				}
				if n < k {
					t.Errorf("%s seed %d: request %d (%s) matches %d objects, k=%d", name, seed, i, class(op), n, k)
				}
				if op.q != nil {
					checkNegations(t, o, op.q.match)
				}
			}
			t.Logf("%s seed %d: %d requests %v", name, seed, len(w.round), classes)
		}
	}
}

// checkNegations fails if e negates a term most objects contain.
func checkNegations(t *testing.T, o *oracle, e expr) {
	t.Helper()
	switch e := e.(type) {
	case not:
		if n := o.matching(e.x); float64(n) > ubiquitousShare*float64(o.nlive) {
			t.Errorf("NOT %s: the term is in %d of %d objects", e.x.skql(), n, o.nlive)
		}
	case and:
		for _, x := range e {
			checkNegations(t, o, x)
		}
	case or:
		for _, x := range e {
			checkNegations(t, o, x)
		}
	}
}
