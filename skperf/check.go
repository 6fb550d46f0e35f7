package main

import (
	"fmt"
	"sync"
)

// fixAnswers computes the brute-force answer of every read of a
// read-only workload's round once, before the run, and gives each
// lookup the id of an object an earlier search answer returned. The
// oracle is only read, so two workers share the computing.
func fixAnswers(w *workload, o *oracle) error {
	var wg sync.WaitGroup
	for part := 0; part < 2; part++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := part; i < len(w.round); i += 2 {
				fixAnswer(&w.round[i], o)
			}
		}()
	}
	wg.Wait()
	var lastHits []hit
	for i := range w.round {
		op := &w.round[i]
		switch op.kind {
		case kSearch:
			lastHits = op.want
		case kGet:
			if len(lastHits) == 0 {
				return fmt.Errorf("lookup %d has no earlier search answer", i)
			}
			op.id = lastHits[i%len(lastHits)].id
		}
		if k := op.k + op.qk(); len(op.want) < k && op.n < k {
			return fmt.Errorf("request %d (%s) has fewer than k=%d answers", i, op.kind, k)
		}
	}
	return nil
}

// qk is the k of an SKQL TOP or RANKED statement, else 0.
func (op *op) qk() int {
	if op.q == nil {
		return 0
	}
	return op.q.k
}

// fixAnswer sets the brute-force answer of a read over the oracle's
// present state.
func fixAnswer(op *op, o *oracle) {
	switch op.kind {
	case kSearch:
		op.want = o.topK(op.k, op.x, op.y, allOf(op.words))
	case kRanked:
		op.n = min(op.k, o.matching(anyOf(op.words)))
	case kQuery:
		q := op.q
		switch q.proj {
		case "TOP":
			op.want = o.topK(q.k, q.x, q.y, q.match)
		case "RANKED":
			op.n = min(q.k, o.matching(anyOf(q.words)))
		case "COUNT":
			op.n = o.count(q.area, q.match)
		}
	}
}

// check checks the answer to a read against the oracle. With exact set
// the op carries its brute-force answer (want, n); otherwise only the
// properties every answer has are checked, and the answer size k, which
// the generator guarantees.
func (o *oracle) check(op *op, a *answer, exact bool) error {
	switch op.kind {
	case kSearch:
		return o.checkTop(a.results, wantOf(op, exact), op.k, op.x, op.y, allOf(op.words))
	case kRanked:
		return o.checkRanked(a.results, sizeOf(op, exact, op.k), op.words)
	case kGet:
		if a.object.Object.ID != op.id {
			return fmt.Errorf("get %d returned object %d", op.id, a.object.Object.ID)
		}
		_, err := o.checkObject(&a.object)
		return err
	case kQuery:
		q := op.q
		switch q.proj {
		case "TOP":
			return o.checkTop(a.results, wantOf(op, exact), q.k, q.x, q.y, q.match)
		case "RANKED":
			return o.checkRanked(a.results, sizeOf(op, exact, q.k), q.words)
		case "COUNT":
			n := op.n
			if !exact {
				n = o.count(q.area, q.match)
			}
			if a.count != n {
				return fmt.Errorf("COUNT %d, brute force has %d", a.count, n)
			}
		}
	}
	return nil
}

func wantOf(op *op, exact bool) []hit {
	if exact {
		return op.want
	}
	return nil
}

func sizeOf(op *op, exact bool, k int) int {
	if exact {
		return op.n
	}
	return k
}
