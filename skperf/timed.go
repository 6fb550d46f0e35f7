package main

import (
	"encoding/json"
	"fmt"
	"math/rand"
	"net/http"
	"os"
	"path/filepath"
	"sort"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"
)

// setups is how many times a run sets up from an empty data directory;
// setup_s is their median.
const setups = 3

// Verification after the timed window.
const (
	sampleOps  = 60 // re-issued requests compared with brute force
	sampleGets = 40 // rw: lookups of random ids, live or deleted
)

// minReads is the fewest reads a timed window takes, so that at least
// ten lie beyond read_p99_ms.
const minReads = 1000

// runner issues one workload's requests to a server and checks them.
type runner struct {
	w *workload
	o *oracle
	c *client
	// nextDoc, when set, draws each added object; otherwise an add
	// carries its object.
	nextDoc func() doc
	added   []uint64 // ids the run added and has not deleted, oldest first

	attempted, failed atomic.Int64
	mu                sync.Mutex
	wrong             int
	firstWrong        error
}

func (r *runner) fail(err error) {
	r.mu.Lock()
	defer r.mu.Unlock()
	if r.wrong == 0 {
		r.firstWrong = err
	}
	r.wrong++
}

// exec issues one request, checks its answer, and reports its latency,
// the size of the response and whether it completed. Writes must not
// run concurrently with anything else.
func (r *runner) exec(o *op, exact bool) (time.Duration, int, bool) {
	var target uint64
	if o.kind == kDelete {
		target = r.added[0]
	}
	if o.kind == kAdd && r.nextDoc != nil {
		local := *o
		local.doc = r.nextDoc()
		o = &local
	}
	r.attempted.Add(1)
	body, lat, err := r.c.call(o, target)
	if err != nil {
		r.failed.Add(1)
		fmt.Fprintln(os.Stderr, "skperf: failed:", err)
		return lat, 0, false
	}
	a, err := decode(o, body)
	if err != nil {
		r.fail(err)
		return lat, len(body), true
	}
	switch o.kind {
	case kAdd:
		r.added = append(r.added, a.id)
		err = r.o.add(a.id, o.doc.x, o.doc.y, o.doc.text)
	case kDelete:
		r.added = r.added[1:]
		err = r.o.del(target)
	default:
		err = r.o.check(o, &a, exact)
	}
	if err != nil {
		r.fail(fmt.Errorf("%s: %w", o.kind, err))
	}
	return lat, len(body), true
}

// sample holds the latencies of completed requests.
type sample struct {
	reads, writes []float64 // ms
	byClass       map[string][]float64
}

// round runs ops once with conns closed-loop connections.
func (r *runner) round(ops []op, conns int, exact bool, s *sample) {
	lats := make([]time.Duration, len(ops))
	done := make([]bool, len(ops))
	var next atomic.Int64
	var wg sync.WaitGroup
	for c := 0; c < conns; c++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				i := int(next.Add(1) - 1)
				if i >= len(ops) {
					return
				}
				lats[i], _, done[i] = r.exec(&ops[i], exact)
			}
		}()
	}
	wg.Wait()
	if s == nil {
		return
	}
	for i := range ops {
		if !done[i] {
			continue
		}
		ms := float64(lats[i]) / 1e6
		if ops[i].kind.write() {
			s.writes = append(s.writes, ms)
		} else {
			s.reads = append(s.reads, ms)
		}
		s.byClass[class(&ops[i])] = append(s.byClass[class(&ops[i])], ms)
	}
}

func class(o *op) string {
	if o.q != nil {
		return "query/" + o.q.class
	}
	return o.kind.String()
}

// percentile is the nearest-rank p-th percentile of xs.
func percentile(xs []float64, p float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	i := int(p/100*float64(len(s)) + 0.5)
	return s[min(max(i-1, 0), len(s)-1)]
}

func median(xs []float64) float64 { return percentile(xs, 50) }

// deployment is a workload's running server on its data directory.
type deployment struct {
	srv    *server
	dir    string
	setupS []float64
	oracle *oracle
}

// deploy sets up from an empty data directory `setups` times, timing
// each from the empty directory to the first answered query, and keeps
// the last server running. The oracle starts from the corpus as the
// program numbered it.
func deploy(cfg config, w *workload, docs []doc, n int, tag string) (*deployment, error) {
	d := &deployment{}
	for i := 0; i < n; i++ {
		dir := filepath.Join(cfg.work, "data", fmt.Sprintf("%s-%d-%s%d", w.name, os.Getpid(), tag, i))
		logPath := filepath.Join(cfg.work, "logs", fmt.Sprintf("%s-seed%d-%s%d.log", w.name, cfg.seed, tag, i))
		if err := os.RemoveAll(dir); err != nil {
			return nil, err
		}
		start := time.Now()
		if err := os.MkdirAll(dir, 0o755); err != nil {
			return nil, err
		}
		ids, err := buildData(w, docs, dir)
		if err != nil {
			os.RemoveAll(dir)
			return nil, fmt.Errorf("build data: %w", err)
		}
		srv, err := startServer(cfg.skserve, w, dir, logPath)
		if err != nil {
			os.RemoveAll(dir)
			return nil, err
		}
		d.setupS = append(d.setupS, time.Since(start).Seconds())
		if i < n-1 {
			srv.stop()
			if err := os.RemoveAll(dir); err != nil {
				return nil, err
			}
			continue
		}
		d.srv, d.dir = srv, dir
		d.oracle = newOracle()
		for j, doc := range docs {
			if err := d.oracle.add(ids[j], doc.x, doc.y, doc.text); err != nil {
				d.close()
				return nil, err
			}
		}
	}
	return d, nil
}

// close kills the server and removes its data directory.
func (d *deployment) close() {
	if d.srv != nil {
		d.srv.stop()
		d.srv = nil
	}
	os.RemoveAll(d.dir)
}

// timed is the untraced run that reports the end-to-end metrics.
func timed(cfg config) (*report, error) {
	w, docs, gen, err := newWorkload(cfg.workload, cfg.seed)
	if err != nil {
		return nil, err
	}
	d, err := deploy(cfg, w, docs, setups, "s")
	if err != nil {
		return nil, err
	}
	defer d.close()
	o := d.oracle
	if w.readOnly {
		if err := fixAnswers(w, o); err != nil {
			return nil, err
		}
	}
	c := newClient(d.srv.base, w.conns)
	defer c.close()
	r := &runner{w: w, o: o, c: c}
	if !w.readOnly {
		r.nextDoc = gen.next
	}
	for i := 0; i < w.prefill; i++ {
		r.exec(&op{kind: kAdd}, false)
	}

	// Warm-up, untimed: fills the node caches and builds the SKQL
	// sidecar index.
	r.round(w.warmup(), w.conns, w.readOnly, nil)

	s := &sample{byClass: make(map[string][]float64)}
	window := time.Duration(cfg.seconds) * time.Second
	start := time.Now()
	rounds := 0
	for {
		r.round(w.round, w.conns, w.readOnly, s)
		rounds++
		el := time.Since(start)
		// Stop at the round boundary nearest to the window's end, once
		// p99 has enough reads beyond it.
		if len(s.reads) >= minReads && el+el/time.Duration(2*rounds) >= window {
			break
		}
	}
	elapsed := time.Since(start).Seconds()
	completed := float64(len(s.reads) + len(s.writes))
	rss, err := d.srv.peakRSSMB()
	if err != nil {
		return nil, err
	}
	stored, err := dirBytes(d.dir)
	if err != nil {
		return nil, err
	}
	if err := verify(cfg, r, d); err != nil {
		r.fail(err)
	}
	if w.readOnly {
		r.round(w.probe, 1, false, s)
	}
	for class, xs := range s.byClass {
		fmt.Fprintf(os.Stderr, "skperf: %-16s n=%-6d p50=%.3fms p99=%.3fms\n", class, len(xs), percentile(xs, 50), percentile(xs, 99))
	}
	fmt.Fprintf(os.Stderr, "skperf: %d rounds in %.2fs, %d reads, %d writes, setups %v\n", rounds, elapsed, len(s.reads), len(s.writes), d.setupS)
	if r.wrong > 0 {
		fmt.Fprintf(os.Stderr, "skperf: %d wrong answers; first: %v\n", r.wrong, r.firstWrong)
	}
	rep := &report{
		Correct:   r.wrong == 0,
		Attempted: int(r.attempted.Load()),
		Failed:    int(r.failed.Load()),
		Metrics: map[string]metric{
			"setup_s":             {median(d.setupS), "s"},
			"throughput_rps":      {completed / elapsed, "req/s"},
			"read_p50_ms":         {percentile(s.reads, 50), "ms"},
			"read_p99_ms":         {percentile(s.reads, 99), "ms"},
			"write_p50_ms":        {percentile(s.writes, 50), "ms"},
			"peak_rss_mb":         {rss, "MB"},
			"bytes_per_user_byte": {float64(stored) / userBytes(o), "ratio"},
		},
	}
	return rep, nil
}

// userBytes is the size of the live user data: text plus a point of
// two float64 coordinates per object.
func userBytes(o *oracle) float64 {
	var n int
	for _, ob := range o.order {
		if ob.live {
			n += len(ob.text) + 16
		}
	}
	return float64(n)
}

// verify re-issues a seeded sample of the round and compares each
// answer with the brute-force answer over the oracle's present state;
// on rw it also checks the live count and random lookups.
func verify(cfg config, r *runner, d *deployment) error {
	rng := rand.New(rand.NewSource(cfg.seed ^ 0x0c1e))
	o := r.o
	for i := 0; i < sampleOps; i++ {
		src := r.w.round[rng.Intn(len(r.w.round))]
		if src.kind.write() {
			continue
		}
		op := src
		fixAnswer(&op, o)
		body, _, err := r.c.call(&op, 0)
		r.attempted.Add(1)
		if err != nil {
			r.failed.Add(1)
			return err
		}
		a, err := decode(&op, body)
		if err == nil {
			err = o.check(&op, &a, true)
		}
		if err != nil {
			return fmt.Errorf("sampled %s re-issued after the window: %w", op.kind, err)
		}
	}
	if r.w.readOnly {
		return nil
	}
	live, err := liveCount(r.c)
	if err != nil {
		return err
	}
	if live != o.nlive {
		return fmt.Errorf("server holds %d live objects, the oracle %d", live, o.nlive)
	}
	for i := 0; i < sampleGets; i++ {
		ob := o.order[rng.Intn(len(o.order))]
		get := op{kind: kGet, id: ob.id}
		r.attempted.Add(1)
		body, _, err := r.c.call(&get, 0)
		if !ob.live {
			if err == nil || !strings.Contains(err.Error(), "HTTP 410") {
				return fmt.Errorf("deleted object %d: want HTTP 410, got %v", ob.id, err)
			}
			continue
		}
		if err != nil {
			r.failed.Add(1)
			return err
		}
		a, err := decode(&get, body)
		if err == nil {
			err = o.check(&get, &a, true)
		}
		if err != nil {
			return err
		}
	}
	return nil
}

// liveCount reads the server's live object count from /healthz.
func liveCount(c *client) (int, error) {
	resp, err := c.hc.Get(c.base + "/healthz")
	if err != nil {
		return 0, err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return 0, fmt.Errorf("healthz: HTTP %d", resp.StatusCode)
	}
	var v struct{ Objects json.Number }
	if err := json.NewDecoder(resp.Body).Decode(&v); err != nil {
		return 0, err
	}
	n, err := strconv.Atoi(v.Objects.String())
	return n, err
}
