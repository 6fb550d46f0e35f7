package main

// The traced run replays a fixed prefix of a workload's round serially,
// once in process through the layers' public functions and once over
// HTTP against the server, and reports the per-layer metrics. Spans are
// recorded from the benchmark's own files, around each call into a
// layer; per-shard records come through the program's SetMetricsSink.

import (
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"sync"
	"time"

	"spatialkeyword"
	"spatialkeyword/internal/obs"
	"spatialkeyword/internal/shard"
	"spatialkeyword/internal/skql"
	"spatialkeyword/internal/storage"
)

// traceOps is the length of the replayed part of the round.
const traceOps = 300

// span is one timed call.
type span struct {
	ID     int    `json:"id"`
	Parent int    `json:"parent"` // 0: a request's root span
	Req    int    `json:"req"`
	Name   string `json:"name"`
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
}

// tracer keeps spans in memory. Calls are serial, but the sharded
// engine reports per-shard records from its fan-out goroutines.
type tracer struct {
	mu    sync.Mutex
	t0    time.Time
	spans []span
	stack []int // open spans, innermost last
	req   int
	on    bool
}

func (t *tracer) now() int64 { return int64(time.Since(t.t0)) }

// begin opens a span under the innermost open one.
func (t *tracer) begin(name string) int {
	t.mu.Lock()
	defer t.mu.Unlock()
	if !t.on {
		return -1
	}
	parent := 0
	if n := len(t.stack); n > 0 {
		parent = t.stack[n-1]
	}
	id := len(t.spans) + 1
	t.spans = append(t.spans, span{ID: id, Parent: parent, Req: t.req, Name: name, Start: t.now()})
	t.stack = append(t.stack, id)
	return id
}

// end closes span id, the innermost open one.
func (t *tracer) end(id int) {
	if id < 0 {
		return
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	t.spans[id-1].End = t.now()
	t.stack = t.stack[:len(t.stack)-1]
}

// record switches span recording on or off.
func (t *tracer) record(on bool) {
	t.mu.Lock()
	defer t.mu.Unlock()
	t.on = on
}

// request sets the request id of the spans that follow.
func (t *tracer) request(id int) {
	t.mu.Lock()
	defer t.mu.Unlock()
	t.req = id
}

// do runs fn inside a span.
func (t *tracer) do(name string, fn func()) {
	id := t.begin(name)
	fn()
	t.end(id)
}

// finished records a span that has just ended after d, under the
// innermost open span.
func (t *tracer) finished(name string, d time.Duration) {
	t.mu.Lock()
	defer t.mu.Unlock()
	if !t.on {
		return
	}
	parent := 0
	if n := len(t.stack); n > 0 {
		parent = t.stack[n-1]
	}
	end := t.now()
	t.spans = append(t.spans, span{ID: len(t.spans) + 1, Parent: parent, Req: t.req, Name: name, Start: end - int64(d), End: end})
}

// selfTimes sums each span name's total and self time: a span's
// duration minus the part of it that its children cover.
func selfTimes(spans []span) map[string][3]float64 {
	kids := make(map[int][]span)
	for _, s := range spans {
		if s.Parent > 0 {
			kids[s.Parent] = append(kids[s.Parent], s)
		}
	}
	out := make(map[string][3]float64)
	for _, s := range spans {
		cs := kids[s.ID]
		sort.Slice(cs, func(i, j int) bool { return cs[i].Start < cs[j].Start })
		var covered, hi int64 = 0, s.Start
		for _, c := range cs {
			lo := max(c.Start, hi, s.Start)
			e := min(c.End, s.End)
			if e > lo {
				covered += e - lo
				hi = e
			}
		}
		v := out[s.Name]
		v[0]++
		v[1] += float64(s.End-s.Start) / 1e6
		v[2] += float64(s.End-s.Start-covered) / 1e6
		out[s.Name] = v
	}
	return out
}

// backend is what the in-process replay drives: the engine or the
// sharded engine, as skserve serves it.
type backend interface {
	skql.Target
	Add(point []float64, text string) (uint64, error)
	Delete(id uint64) error
	Flush() error
	Corpus() spatialkeyword.CorpusStats
	MeterIO() func() (random, sequential uint64)
	NodeCacheStats() spatialkeyword.NodeCacheStats
	WALInfo() spatialkeyword.WALInfo
	SetMetricsSink(obs.Sink)
	Close() error
}

// target is the SKQL target the in-process catalog runs on. Like
// skserve's backends it offers Flush, Corpus and MeterIO and no
// streaming iterators, so plans take the server's paths. Every call is
// a span and is counted.
type target struct {
	b     backend
	tr    *tracer
	calls map[string]int
}

func (t *target) span(name string) func() {
	t.calls[name]++
	id := t.tr.begin("Target." + name)
	return func() { t.tr.end(id) }
}

func (t *target) Get(id uint64) (spatialkeyword.Object, error) {
	defer t.span("Get")()
	return t.b.Get(id)
}

func (t *target) TopKWithStats(k int, p []float64, kw ...string) ([]spatialkeyword.Result, spatialkeyword.QueryStats, error) {
	defer t.span("TopKWithStats")()
	return t.b.TopKWithStats(k, p, kw...)
}

func (t *target) TopKRanked(k int, p []float64, kw ...string) ([]spatialkeyword.RankedResult, error) {
	defer t.span("TopKRanked")()
	return t.b.TopKRanked(k, p, kw...)
}

func (t *target) TopKArea(k int, lo, hi []float64, kw ...string) ([]spatialkeyword.Result, error) {
	defer t.span("TopKArea")()
	return t.b.TopKArea(k, lo, hi, kw...)
}

func (t *target) WithinArea(lo, hi []float64, kw ...string) ([]spatialkeyword.Result, error) {
	defer t.span("WithinArea")()
	return t.b.WithinArea(lo, hi, kw...)
}

func (t *target) NumObjects() int {
	defer t.span("NumObjects")()
	return t.b.NumObjects()
}

func (t *target) Scan(fn func(spatialkeyword.Object) error) error {
	defer t.span("Scan")()
	return t.b.Scan(fn)
}

func (t *target) IsDeleted(id uint64) bool {
	defer t.span("IsDeleted")()
	return t.b.IsDeleted(id)
}

func (t *target) Stats() spatialkeyword.Stats {
	defer t.span("Stats")()
	return t.b.Stats()
}

func (t *target) Flush() error {
	defer t.span("Flush")()
	return t.b.Flush()
}

func (t *target) Corpus() spatialkeyword.CorpusStats {
	defer t.span("Corpus")()
	return t.b.Corpus()
}

func (t *target) MeterIO() func() (random, sequential uint64) {
	defer t.span("MeterIO")()
	return t.b.MeterIO()
}

// searchCalls are the Target methods that run an index search; more
// than one per statement means the executor widened and re-queried.
var searchCalls = []string{"TopKWithStats", "TopKRanked", "TopKArea", "WithinArea"}

// inproc is the in-process replica of a workload's server.
type inproc struct {
	b       backend
	sharded *shard.ShardedEngine // nil for a single engine
	engine  *spatialkeyword.Engine
	cat     *skql.Catalog
	tgt     *target
	tr      *tracer
	added   []uint64

	mu      sync.Mutex
	records []obs.QueryMetrics // engine records of the current request
}

func openInproc(w *workload, docs []doc, dir string) (*inproc, error) {
	if _, err := buildData(w, docs, dir); err != nil {
		return nil, err
	}
	p := &inproc{tr: &tracer{t0: time.Now()}}
	if w.shards > 1 {
		se, err := shard.Open(dir)
		if err != nil {
			return nil, err
		}
		p.b, p.sharded = se, se
	} else {
		e, err := spatialkeyword.OpenEngine(dir)
		if err != nil {
			return nil, err
		}
		p.b, p.engine = e, e
	}
	p.b.SetMetricsSink(obs.SinkFunc(p.record))
	p.tgt = &target{b: p.b, tr: p.tr, calls: make(map[string]int)}
	p.cat = skql.NewCatalog(p.tgt)
	return p, nil
}

func (p *inproc) record(m obs.QueryMetrics) {
	p.mu.Lock()
	p.records = append(p.records, m)
	p.mu.Unlock()
	if m.Shard >= 0 {
		p.tr.finished(fmt.Sprintf("shard%d.%s", m.Shard, m.Op), m.Latency)
	}
}

// engineIO returns the engine's device accesses since the call.
func (p *inproc) engineIO() func() storage.Stats {
	if p.engine != nil {
		return p.engine.MeterIOStats()
	}
	stop := p.sharded.MeterShardIO()
	return func() storage.Stats {
		var t storage.Stats
		for _, s := range stop() {
			t = t.Add(s)
		}
		return t
	}
}

// sidecarIO returns the SKQL sidecar index's device accesses since the
// call, counting a rebuilt index's device from zero.
func (p *inproc) sidecarIO() func() storage.Stats {
	dev := p.cat.SidecarDevice()
	var before storage.Stats
	if dev != nil {
		before = dev.Stats()
	}
	return func() storage.Stats {
		now := p.cat.SidecarDevice()
		switch {
		case now == nil:
			return storage.Stats{}
		case now != dev:
			return now.Stats()
		}
		return now.Stats().Sub(before)
	}
}

func (p *inproc) name() string {
	if p.sharded != nil {
		return "ShardedEngine"
	}
	return "Engine"
}

// reqStats is what one in-process request did.
type reqStats struct {
	dur     time.Duration
	io      storage.Stats
	sidecar uint64 // sidecar device reads
	iio     bool   // an SKQL operator ran on the sidecar
	records []obs.QueryMetrics
	gets    int
	calls   map[string]int
	parse   time.Duration
	plan    time.Duration
	exec    time.Duration
}

// exec runs one request in process.
func (p *inproc) exec(o *op, d doc) (reqStats, error) {
	var st reqStats
	p.mu.Lock()
	p.records = nil
	p.mu.Unlock()
	before := make(map[string]int, len(p.tgt.calls))
	for k, v := range p.tgt.calls {
		before[k] = v
	}
	engIO, sideIO := p.engineIO(), p.sidecarIO()
	root := p.tr.begin("request." + o.kind.String())
	start := time.Now()
	var err error
	eng := p.name() + "."
	switch o.kind {
	case kSearch:
		p.tr.do(eng+"TopKWithStats", func() { _, _, err = p.b.TopKWithStats(o.k, []float64{o.x, o.y}, o.words...) })
	case kRanked:
		p.tr.do(eng+"TopKRanked", func() { _, err = p.b.TopKRanked(o.k, []float64{o.x, o.y}, o.words...) })
	case kGet:
		st.gets++
		p.tr.do(eng+"Get", func() { _, err = p.b.Get(o.id) })
	case kQuery:
		err = p.query(o.q, &st)
	case kAdd:
		var id uint64
		p.tr.do(eng+"Add", func() { id, err = p.b.Add([]float64{d.x, d.y}, d.text) })
		if err == nil && p.engine != nil {
			// skserve's single-engine backend flushes inside each add.
			p.tr.do(eng+"Flush", func() { err = p.b.Flush() })
		}
		p.added = append(p.added, id)
	case kDelete:
		id := p.added[0]
		p.added = p.added[1:]
		p.tr.do(eng+"Delete", func() { err = p.b.Delete(id) })
	}
	st.dur = time.Since(start)
	p.tr.end(root)
	if err != nil {
		return st, fmt.Errorf("in-process %s: %w", o.kind, err)
	}
	side := sideIO()
	st.sidecar = side.RandomReads + side.SequentialReads
	all := engIO().Add(side)
	st.io = storage.Stats{RandomReads: all.RandomReads, SequentialReads: all.SequentialReads}
	p.mu.Lock()
	st.records = p.records
	p.mu.Unlock()
	st.calls = make(map[string]int)
	for k, v := range p.tgt.calls {
		if v > before[k] {
			st.calls[k] = v - before[k]
		}
	}
	st.gets += st.calls["Get"]
	return st, nil
}

// query runs one SKQL statement the way skserve's POST /query does.
func (p *inproc) query(q *query, st *reqStats) error {
	var (
		sq   *skql.Query
		plan *skql.Plan
		err  error
	)
	t := time.Now()
	p.tr.do("skql.Parse", func() { sq, err = skql.Parse(q.String()) })
	st.parse = time.Since(t)
	if err != nil {
		return err
	}
	t = time.Now()
	p.tr.do("Catalog.BuildPlan", func() { plan, err = p.cat.BuildPlan(sq) })
	st.plan = time.Since(t)
	if err != nil {
		return err
	}
	for _, o := range plan.Ops {
		st.iio = st.iio || o.Path == skql.PathIIO
	}
	t = time.Now()
	p.tr.do("Catalog.RunPlan", func() { _, err = p.cat.RunPlan(plan) })
	st.exec = time.Since(t)
	return err
}

// walBytes sums the sizes of the write-ahead log files under dir.
func walBytes(dir string) (int64, error) {
	var n int64
	err := filepath.WalkDir(dir, func(path string, d os.DirEntry, err error) error {
		if err != nil || !d.Type().IsRegular() || !strings.HasPrefix(d.Name(), "wal.") {
			return err
		}
		info, err := d.Info()
		if err == nil {
			n += info.Size()
		}
		return err
	})
	return n, err
}

// traced is the serial traced run that reports the per-layer metrics.
func traced(cfg config) (*report, error) {
	w, docs, gen, err := newWorkload(cfg.workload, cfg.seed)
	if err != nil {
		return nil, err
	}
	// The prefix starts where the warm-up ends, so it meets the caches as
	// the timed window's rounds do.
	start := len(w.warmup()) % len(w.round)
	prefix := append([]op(nil), w.round[start:min(start+traceOps, len(w.round))]...)
	if w.readOnly {
		prefix = append(prefix, w.probe...)
	}
	// Both replays add the same new objects.
	adds := make([]doc, 0, w.prefill+len(w.warmup())+len(prefix))
	for i := 0; i < cap(adds); i++ {
		adds = append(adds, gen.next())
	}

	d, err := deploy(cfg, w, docs, 1, "t")
	if err != nil {
		return nil, err
	}
	defer d.close()
	if w.readOnly {
		if err := fixAnswers(w, d.oracle); err != nil {
			return nil, err
		}
	}
	dir := filepath.Join(cfg.work, "data", fmt.Sprintf("%s-%d-inproc", w.name, os.Getpid()))
	os.RemoveAll(dir)
	defer os.RemoveAll(dir)
	p, err := openInproc(w, docs, dir)
	if err != nil {
		return nil, err
	}
	defer p.b.Close()

	// In process: prefill, the warm-up, then the traced prefix.
	next := 0
	nextDoc := func(o *op) doc {
		if o.kind != kAdd {
			return doc{}
		}
		if w.readOnly {
			return o.doc
		}
		next++
		return adds[next-1]
	}
	for i := 0; i < w.prefill; i++ {
		if _, err := p.exec(&op{kind: kAdd}, nextDoc(&op{kind: kAdd})); err != nil {
			return nil, err
		}
	}
	warm := w.warmup()
	for i := range warm {
		if _, err := p.exec(&warm[i], nextDoc(&warm[i])); err != nil {
			return nil, err
		}
	}
	var untraced time.Duration
	if w.readOnly {
		// Tracing overhead: the prefix's reads once more, untraced.
		for i := range prefix {
			if !prefix[i].kind.write() {
				st, err := p.exec(&prefix[i], doc{})
				if err != nil {
					return nil, err
				}
				untraced += st.dur
			}
		}
	}
	nc0 := p.b.NodeCacheStats()
	wal0 := p.b.WALInfo()
	walB0, err := walBytes(dir)
	if err != nil {
		return nil, err
	}
	p.tr.record(true)
	stats := make([]reqStats, len(prefix))
	for i := range prefix {
		p.tr.request(i + 1)
		if stats[i], err = p.exec(&prefix[i], nextDoc(&prefix[i])); err != nil {
			return nil, err
		}
	}
	p.tr.record(false)
	nc1 := p.b.NodeCacheStats()
	wal1 := p.b.WALInfo()
	walB1, err := walBytes(dir)
	if err != nil {
		return nil, err
	}

	// Over HTTP: the same sequence, serially.
	c := newClient(d.srv.base, 1)
	defer c.close()
	r := &runner{w: w, o: d.oracle, c: c}
	if !w.readOnly {
		httpAdds := adds
		r.nextDoc = func() doc {
			next := httpAdds[0]
			httpAdds = httpAdds[1:]
			return next
		}
	}
	for i := 0; i < w.prefill; i++ {
		r.exec(&op{kind: kAdd}, false)
	}
	r.round(w.warmup(), 1, false, nil)
	httpLat := make([]time.Duration, len(prefix))
	httpBytes := 0
	for i := range prefix {
		lat, n, ok := r.exec(&prefix[i], false)
		if !ok {
			return nil, fmt.Errorf("HTTP replay: %s failed", prefix[i].kind)
		}
		httpLat[i] = lat
		httpBytes += n
	}

	m := layerMetrics(p, prefix, stats, httpLat, httpBytes)
	m["nodecache.hit_rate"] = metric{ratio(nc1.Hits-nc0.Hits, nc1.Hits-nc0.Hits+nc1.Misses-nc0.Misses), "ratio"}
	writes := 0
	for i := range prefix {
		if prefix[i].kind.write() {
			writes++
		}
	}
	m["wal.fsyncs_per_write"] = metric{ratio(wal1.Fsyncs-wal0.Fsyncs, uint64(writes)), "count"}
	m["wal.bytes_per_write"] = metric{ratio(uint64(walB1-walB0), uint64(writes)), "bytes"}

	var traced time.Duration
	for i := range prefix {
		if !prefix[i].kind.write() {
			traced += stats[i].dur
		}
	}
	if untraced > 0 {
		fmt.Fprintf(os.Stderr, "skperf: tracing overhead on the prefix's reads: %.1f%% (%.1fms traced, %.1fms untraced)\n",
			100*(float64(traced)/float64(untraced)-1), float64(traced)/1e6, float64(untraced)/1e6)
	}
	if err := writeTrace(cfg, p.tr.spans); err != nil {
		return nil, err
	}
	if r.wrong > 0 {
		fmt.Fprintf(os.Stderr, "skperf: %d wrong answers; first: %v\n", r.wrong, r.firstWrong)
	}
	return &report{Correct: r.wrong == 0, Attempted: int(r.attempted.Load()), Failed: int(r.failed.Load()), Metrics: m}, nil
}

func ratio(a, b uint64) float64 {
	if b == 0 {
		return 0
	}
	return float64(a) / float64(b)
}

// writeTrace writes the spans and their per-name totals and self times.
func writeTrace(cfg config, spans []span) error {
	summary := make(map[string]map[string]float64)
	for name, v := range selfTimes(spans) {
		summary[name] = map[string]float64{"count": v[0], "total_ms": v[1], "self_ms": v[2]}
	}
	data, err := json.Marshal(map[string]any{"spans": spans, "summary": summary})
	if err != nil {
		return err
	}
	path := filepath.Join(cfg.work, "traces", fmt.Sprintf("%s-seed%d.json", cfg.workload, cfg.seed))
	return os.WriteFile(path, data, 0o644)
}

// layerMetrics reduces the traced prefix to the per-layer metrics.
func layerMetrics(p *inproc, prefix []op, stats []reqStats, httpLat []time.Duration, httpBytes int) map[string]metric {
	var (
		reads, queries, iioQueries, writes  int
		selfSum                             time.Duration
		parse, plan, exec                   time.Duration
		targetCalls, sidecarBlocks          uint64
		nodes, objects, fps, fetched        uint64
		io                                  storage.Stats
		shardTopK, shardTopKN, mergeSelf    float64
		engTopK, engTopKN, engRank, engRanN float64
	)
	for i := range prefix {
		st := &stats[i]
		selfSum += httpLat[i] - st.dur
		if prefix[i].kind.write() {
			writes++
			continue
		}
		reads++
		io = io.Add(st.io)
		objects += uint64(st.gets)
		for _, r := range st.records {
			if r.Shard < 0 {
				nodes += uint64(r.NodesExpanded)
				fps += uint64(r.SigFalsePositives)
				fetched += uint64(r.ObjectsFetched)
				objects += uint64(r.ObjectsFetched)
			} else {
				switch r.Op {
				case "topk":
					engTopK += float64(r.Latency) / 1e6
					engTopKN++
				case "ranked":
					engRank += float64(r.Latency) / 1e6
					engRanN++
				}
			}
		}
		if prefix[i].kind == kQuery {
			queries++
			parse += st.parse
			plan += st.plan
			exec += st.exec
			for _, c := range searchCalls {
				targetCalls += uint64(st.calls[c])
			}
			if st.iio {
				iioQueries++
				sidecarBlocks += st.sidecar
			}
		}
	}
	// Engine and shard call durations come from the spans.
	var adds, flushes, deletes [2]float64
	byID := make(map[int]span, len(p.tr.spans))
	for _, s := range p.tr.spans {
		byID[s.ID] = s
	}
	slowestShard := make(map[int]float64)
	for _, s := range p.tr.spans {
		if strings.HasPrefix(s.Name, "shard") && strings.HasSuffix(s.Name, ".topk") {
			slowestShard[s.Parent] = max(slowestShard[s.Parent], float64(s.End-s.Start)/1e6)
		}
	}
	var scans, scanMS float64
	for _, s := range p.tr.spans {
		ms := float64(s.End-s.Start) / 1e6
		name := s.Name[strings.IndexByte(s.Name, '.')+1:]
		switch {
		case s.Name == "Target.Scan":
			scans++
			scanMS += ms
		case p.sharded != nil && (s.Name == "ShardedEngine.TopKWithStats" || s.Name == "Target.TopKWithStats"):
			shardTopK += ms
			shardTopKN++
			mergeSelf += ms - slowestShard[s.ID]
		case p.sharded == nil && name == "TopKWithStats":
			engTopK += ms
			engTopKN++
		case p.sharded == nil && name == "TopKRanked":
			engRank += ms
			engRanN++
		case strings.HasSuffix(s.Name, "Engine.Add"):
			adds[0] += ms * 1000
			adds[1]++
		case strings.HasSuffix(s.Name, "Engine.Flush"):
			flushes[0] += ms * 1000
			flushes[1]++
		case strings.HasSuffix(s.Name, "Engine.Delete"):
			deletes[0] += ms * 1000
			deletes[1]++
		}
	}
	mean := func(sum, n float64) float64 {
		if n == 0 {
			return 0
		}
		return sum / n
	}
	perRead := func(v uint64) float64 { return mean(float64(v), float64(reads)) }
	perQuery := func(d time.Duration) float64 { return mean(float64(d), float64(queries)) }
	return map[string]metric{
		"skserve.self_ms":                   {mean(float64(selfSum)/1e6, float64(len(prefix))), "ms"},
		"skserve.resp_bytes":                {mean(float64(httpBytes), float64(len(prefix))), "bytes"},
		"skql.parse_us":                     {perQuery(parse) / 1e3, "us"},
		"skql.plan_us":                      {perQuery(plan) / 1e3, "us"},
		"skql.exec_ms":                      {perQuery(exec) / 1e6, "ms"},
		"skql.target_calls_per_query":       {mean(float64(targetCalls), float64(queries)), "count"},
		"skql.sidecar_builds":               {scans, "count"},
		"skql.sidecar_build_ms":             {mean(scanMS, scans), "ms"},
		"invindex.blocks_per_query":         {mean(float64(sidecarBlocks), float64(iioQueries)), "blocks"},
		"spatialkeyword.topk_ms":            {mean(engTopK, engTopKN), "ms"},
		"spatialkeyword.ranked_ms":          {mean(engRank, engRanN), "ms"},
		"spatialkeyword.add_us":             {mean(adds[0], adds[1]), "us"},
		"spatialkeyword.flush_us":           {mean(flushes[0], flushes[1]), "us"},
		"spatialkeyword.delete_us":          {mean(deletes[0], deletes[1]), "us"},
		"shard.topk_ms":                     {mean(shardTopK, shardTopKN), "ms"},
		"shard.merge_self_ms":               {mean(mergeSelf, shardTopKN), "ms"},
		"rtree.nodes_per_query":             {perRead(nodes), "count"},
		"sigfile.false_pos_per_query":       {perRead(fps), "count"},
		"sigfile.precision":                 {ratio(fetched-fps, fetched), "ratio"},
		"objstore.objects_per_query":        {perRead(objects), "count"},
		"storage.random_blocks_per_query":   {perRead(io.RandomReads), "blocks"},
		"storage.seq_blocks_per_query":      {perRead(io.SequentialReads), "blocks"},
		"storage.modeled_disk_ms_per_query": {mean(float64(storage.DefaultCostModel().Time(io))/1e6, float64(reads)), "ms"},
	}
}
