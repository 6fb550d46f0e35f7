package main

import (
	"strings"
	"testing"
)

// tiny is a hand-built corpus: objects 1 and 2 tie at distance 1 from
// the origin, object 3 is deleted, object 4 is far.
func tiny(t *testing.T) *oracle {
	t.Helper()
	o := newOracle()
	for _, ob := range []struct {
		id   uint64
		x, y float64
		text string
	}{
		{0, 0, 2, "pizza wifi"},
		{1, 1, 0, "pizza beer"},
		{2, 0, -1, "Pizza, WiFi!"},
		{3, 0.5, 0, "pizza wifi beer"},
		{4, 10, 10, "sushi wifi"},
	} {
		if err := o.add(ob.id, ob.x, ob.y, ob.text); err != nil {
			t.Fatal(err)
		}
	}
	if err := o.del(3); err != nil {
		t.Fatal(err)
	}
	return o
}

func ids(hs []hit) []uint64 {
	out := make([]uint64, len(hs))
	for i, h := range hs {
		out[i] = h.id
	}
	return out
}

func TestOracleTopKTiesAndDeletes(t *testing.T) {
	o := tiny(t)
	got := ids(o.topK(3, 0, 0, term("pizza")))
	want := []uint64{1, 2, 0} // 1 and 2 tie at distance 1: smaller id first; 3 is deleted
	if len(got) != len(want) {
		t.Fatalf("topK = %v, want %v", got, want)
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("topK = %v, want %v", got, want)
		}
	}
	if got := o.topK(10, 0, 0, allOf([]string{"pizza", "wifi"})); len(got) != 2 {
		t.Fatalf("pizza AND wifi: %v, want objects 2 and 0", got)
	}
	if err := o.del(3); err == nil {
		t.Fatal("deleting a deleted object succeeded")
	}
	if err := o.add(4, 0, 0, "x"); err == nil {
		t.Fatal("adding an existing id succeeded")
	}
}

func TestOracleBooleanMatch(t *testing.T) {
	o := tiny(t)
	for _, c := range []struct {
		e    expr
		want int
	}{
		{or{term("beer"), term("sushi")}, 2},           // 1, 4 (3 deleted)
		{and{term("wifi"), not{term("pizza")}}, 1},     // 4
		{and{term("pizza"), not{or{term("wifi")}}}, 1}, // 1
		{or{and{term("pizza"), term("beer")}, term("sushi")}, 2},
		{not{term("nosuchword")}, 4},
		{term("PIZZA"), 3},
	} {
		if got := o.matching(c.e); got != c.want {
			t.Errorf("%s: %d matches, want %d", c.e.skql(), got, c.want)
		}
	}
	if got, want := (and{term("a"), not{or{term("b"), term("c")}}}).skql(), `"a" AND NOT ("b" OR "c")`; got != want {
		t.Errorf("skql() = %s, want %s", got, want)
	}
}

func TestOracleCountWithin(t *testing.T) {
	o := tiny(t)
	if got := o.count(rect{0, 0, 1, 2}, term("pizza")); got != 2 { // 0 and 1 on the border, 3 deleted
		t.Errorf("count = %d, want 2", got)
	}
	if got := o.count(rect{-1, -1, 11, 11}, or{term("wifi"), term("beer")}); got != 4 {
		t.Errorf("count = %d, want 4", got)
	}
}

// res builds a server-shaped result for object id of o.
func res(o *oracle, id uint64, dist, score float64) result {
	var r result
	ob := o.objs[id]
	r.Object.ID, r.Object.Point, r.Object.Text = id, []float64{ob.x, ob.y}, ob.text
	r.Dist, r.Score = dist, score
	return r
}

func TestCheckTop(t *testing.T) {
	o := tiny(t)
	e := term("pizza")
	want := o.topK(2, 0, 0, e)
	// Either object at the tied distance is a right answer.
	for _, got := range [][]result{
		{res(o, 1, 1, 0), res(o, 2, 1, 0)},
		{res(o, 2, 1, 0), res(o, 1, 1, 0)},
	} {
		if err := o.checkTop(got, want, 0, 0, 0, e); err != nil {
			t.Errorf("tied answer rejected: %v", err)
		}
	}
	for name, got := range map[string][]result{
		"deleted":    {res(o, 3, 0.5, 0), res(o, 1, 1, 0)},
		"too far":    {res(o, 1, 1, 0), res(o, 0, 2, 0)},
		"short":      {res(o, 1, 1, 0)},
		"duplicate":  {res(o, 1, 1, 0), res(o, 1, 1, 0)},
		"wrong dist": {res(o, 1, 1, 0), res(o, 2, 1.5, 0)},
		"no match":   {res(o, 1, 1, 0), res(o, 4, 14.142135623730951, 0)},
	} {
		if err := o.checkTop(got, want, 0, 0, 0, e); err == nil {
			t.Errorf("%s answer accepted", name)
		}
	}
	bad := res(o, 1, 1, 0)
	bad.Object.Text = "pizza"
	if err := o.checkTop([]result{bad, res(o, 2, 1, 0)}, want, 0, 0, 0, e); err == nil || !strings.Contains(err.Error(), "text") {
		t.Errorf("altered text accepted: %v", err)
	}
}

func TestCheckRanked(t *testing.T) {
	o := tiny(t)
	words := []string{"beer", "sushi"}
	if err := o.checkRanked([]result{res(o, 1, 1, 0.9), res(o, 4, 14, 0.2)}, 2, words); err != nil {
		t.Errorf("good ranked answer rejected: %v", err)
	}
	if err := o.checkRanked([]result{res(o, 1, 1, 0.2), res(o, 4, 14, 0.9)}, 2, words); err == nil {
		t.Error("rising scores accepted")
	}
	if err := o.checkRanked([]result{res(o, 1, 1, 0.9), res(o, 0, 2, 0.2)}, 2, words); err == nil {
		t.Error("result without a keyword accepted")
	}
}

func TestQuartilesMatchPython(t *testing.T) {
	// Values of Python's statistics.quantiles(xs, n=4).
	for _, c := range []struct {
		xs   []float64
		want [3]float64
	}{
		{[]float64{1, 2, 3, 4, 5, 6, 7, 8, 9, 10}, [3]float64{2.75, 5.5, 8.25}},
		{[]float64{3, 1, 2}, [3]float64{1, 2, 3}},
		{[]float64{5, 1}, [3]float64{0, 3, 6}},
	} {
		q1, q2, q3 := quartiles(c.xs)
		if [3]float64{q1, q2, q3} != c.want {
			t.Errorf("quartiles(%v) = %v %v %v, want %v", c.xs, q1, q2, q3, c.want)
		}
	}
}
