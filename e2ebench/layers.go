package main

import (
	"bufio"
	"bytes"
	"encoding/json"
	"fmt"
	"os"
	"runtime"
	"slices"
	"sort"
	"strconv"
	"strings"
	"time"

	"redisgraph/internal/core"
	"redisgraph/internal/cypher"
	"redisgraph/internal/resp"
	"redisgraph/internal/server"
	"redisgraph/internal/value"
)

const (
	// profileSample is how many of the workload's reads run under
	// GRAPH.PROFILE after the traced window.
	profileSample = 64
	// replayLimit and replayBudget bound the in-process replay.
	replayLimit  = 20000
	replayBudget = 3 * time.Second
	// replayProbe is how many probe writes the replay runs on workloads
	// whose requests are all reads.
	replayProbe = 1000
)

// tracedWindows is how many windows a traced run measures; they alternate
// untraced and traced, so the tracing overhead is not confused with drift
// over the run.
const tracedWindows = 4

// runTraced sets up once, then runs tracedWindows windows over the same
// request streams, alternately without and with request and core.exec
// spans. Around each traced window it reads INFO and the plan-cache header
// of GRAPH.EXPLAIN; afterwards it profiles a sample of the workload's
// reads. With the server stopped, it replays the same request streams
// in-process against a graph loaded the same way, timing the calls into
// each layer.
func runTraced(o options, procs *procSet, ds *dataset, steps []loadStep, stamp map[string]any, rep *report) (*result, error) {
	s, err := setUp(o, procs, ds, steps)
	if err != nil {
		return nil, err
	}
	defer s.close()
	s.stamp(stamp)

	dur := time.Duration(o.seconds) * time.Second / tracedWindows
	fails := &failLog{}
	streams := windowStreams(o, ds, 0)
	c := s.conns[0]
	explain := newStream(ds, o.seed, profileID, o.workload.reads, 0, 0, 1).next().text
	plain, traced := &windowResult{}, &windowResult{}
	info, cache := map[string]float64{}, map[string]float64{} // deltas over the traced windows
	epoch := time.Now()
	for k := 0; k < tracedWindows; k++ {
		if k%2 == 0 {
			plain.add(runWindow(s.conns, streams, dur, time.Time{}, fails))
			continue
		}
		info0, err := serverInfo(c)
		if err != nil {
			return nil, err
		}
		cache0, _, err := cacheCounters(c, explain)
		if err != nil {
			return nil, err
		}
		traced.add(runWindow(s.conns, streams, dur, epoch, fails))
		info1, err := serverInfo(c)
		if err != nil {
			return nil, err
		}
		cache1, hit, err := cacheCounters(c, explain)
		if err != nil {
			return nil, err
		}
		for key, v := range info1 {
			info[key] += v - info0[key]
		}
		for key, v := range cache1 {
			cache[key] += v - cache0[key]
		}
		if hit { // the closing EXPLAIN's own lookup
			cache["hits"]--
		} else {
			cache["misses"]--
		}
	}
	prof, err := profileReads(c, o, ds)
	if err != nil {
		return nil, err
	}
	s.close() // the replay must not share the cores with the server

	rp, err := replay(o, ds, steps, epoch, fails)
	if err != nil {
		return nil, err
	}
	res := &result{
		Attempted: plain.attempted + traced.attempted + rp.attempted,
		Failed:    plain.failed + traced.failed + rp.failed,
	}
	if len(plain.readLat) == 0 || len(traced.readLat) == 0 || len(rp.reads) == 0 {
		return nil, fmt.Errorf("no successful reads to measure (%d failed)", res.Failed)
	}
	if o.spans != "" {
		if err := writeSpans(o.spans, append(traced.spans, rp.spans...)); err != nil {
			return nil, err
		}
	}

	// Tracing overhead: alternating windows over the same streams, with
	// and without spans.
	rep.add("trace.untraced_qps", plain.qps(), "1/s", "")
	rep.add("trace.traced_qps", traced.qps(), "1/s", "")
	rep.add("trace.untraced_read_p50_ms", ms(quantile(plain.readLat, 0.5)), "ms", fmt.Sprintf("n=%d", len(plain.readLat)))
	rep.add("trace.traced_read_p50_ms", ms(quantile(traced.readLat, 0.5)), "ms", fmt.Sprintf("n=%d", len(traced.readLat)))

	inReads := field(rp.reads, func(r replayRec) float64 { return r.total })
	all := rp.reads // the workload's own requests, without the write probe
	if o.workload.writeShare > 0 {
		all = slices.Concat(rp.reads, rp.writes)
	}
	nReplay := fmt.Sprintf("in-process replay, n=%d", len(all))
	rep.add("resp.decode_us", median(field(all, func(r replayRec) float64 { return r.decode })), "us", nReplay+", Reader.ReadCommand")
	rep.add("resp.encode_us", median(field(all, func(r replayRec) float64 { return r.encode })), "us", nReplay+", result conversion + Writer.WriteReply")
	rep.add("resp.reply_bytes", mean(field(all, func(r replayRec) float64 { return r.bytes })), "B", nReplay+", mean")

	respRead := ms(quantile(traced.readLat, 0.5)) * 1e3
	rep.add("server.overhead_us", respRead-median(inReads), "us",
		fmt.Sprintf("RESP read p50 %.1f us minus in-process read p50 %.1f us", respRead, median(inReads)))
	rep.add("server.outside_exec_share", 1-float64(traced.execSum)/float64(traced.latSum), "ratio",
		fmt.Sprintf("1 - trailer time / client latency over %d traced requests", traced.completed()))

	done := float64(traced.completed())
	admitted, rejected := info["admission_admitted"], info["admission_rejected"]
	rep.add("pool.rejected_ratio", rejected/max(admitted+rejected, 1), "ratio", "INFO delta over the traced windows")
	rep.add("pool.worker_share", info["worker_time_ms"]/ms(traced.latSum), "ratio", "INFO worker_time_ms delta / summed client latency")
	rep.add("pool.stolen_morsels_per_req", info["stolen_morsels"]/done, "count", "INFO delta / traced requests")
	rep.add("pool.caller_morsels_per_req", info["caller_morsels"]/done, "count", "INFO delta / traced requests")

	rep.add("cypher.params_us", median(field(all, func(r replayRec) float64 { return r.params })), "us", nReplay+", ParseParams")
	rep.add("cypher.parse_us", median(field(all, func(r replayRec) float64 { return r.parse })), "us", nReplay+", Parse of each request's text: what a plan-cache miss pays")

	hits, misses := cache["hits"], cache["misses"]
	rep.add("core.plancache_hit_ratio", hits/max(hits+misses, 1), "ratio", fmt.Sprintf("EXPLAIN header delta: %.0f hits, %.0f misses", hits, misses))
	rep.add("core.plancache_revalidations_per_req", cache["revalidations"]/done, "count", "EXPLAIN header delta / traced requests")
	rep.add("core.plancache_invalidations_per_req", cache["invalidations"]/done, "count", "EXPLAIN header delta / traced requests")
	rep.add("core.plancache_evictions_per_req", cache["evictions"]/done, "count", "EXPLAIN header delta / traced requests")
	rep.add("core.plan_us", median(field(all, func(r replayRec) float64 { return r.query - r.exec })), "us", nReplay+", Query/ROQuery wall minus ExecutionTime")
	rep.add("core.exec_ms", median(traced.readExecMs), "ms", fmt.Sprintf("reply trailer, traced reads, n=%d", len(traced.readExecMs)))
	rep.add("core.rows_per_req", float64(traced.rows)/done, "count", "traced window")

	for _, op := range prof.opNames() {
		printMetric("core.op."+op+"_ms", prof.self[op]/float64(prof.n), "ms", fmt.Sprintf("PROFILE self time per request, n=%d", prof.n))
	}
	for _, g := range []string{"scan", "traverse", "other"} {
		rep.add("core.op."+g+"_ms", prof.group[g]/float64(prof.n), "ms", fmt.Sprintf("PROFILE self time per request, n=%d", prof.n))
	}
	rep.add("grb.pull_hop_share", prof.pullShare(), "ratio", fmt.Sprintf("%d of %d profiled traversals ran pull or mixed", prof.pull, prof.hops))

	rep.add("graph.load_nodes_per_s", rp.nodesPerS, "1/s", "in-process bulk load")
	rep.add("graph.load_edges_per_s", rp.edgesPerS, "1/s", "in-process bulk load of :F")
	writeNote := nReplay
	if o.workload.writeShare == 0 {
		writeNote = fmt.Sprintf("in-process probe of %d write-mix writes", len(rp.writes))
	}
	rep.add("graph.write_us", median(field(rp.writes, func(r replayRec) float64 { return r.query })), "us", writeNote+", Query wall time")
	rep.add("graph.pending_deltas_max", float64(rp.pendingMax), "count", "PendingDeltas after each replayed write")
	return res, nil
}

// field extracts one measurement from each replayed request.
func field(recs []replayRec, f func(replayRec) float64) []float64 {
	out := make([]float64, len(recs))
	for i, r := range recs {
		out[i] = f(r)
	}
	return out
}

// serverInfo reads INFO's numeric key:value fields.
func serverInfo(c *conn) (map[string]float64, error) {
	v, err := c.call("INFO")
	if err != nil {
		return nil, err
	}
	text, ok := v.(string)
	if !ok {
		return nil, fmt.Errorf("INFO: want bulk string, got %T", v)
	}
	out := map[string]float64{}
	for _, l := range strings.Split(text, "\r\n") {
		if k, val, ok := strings.Cut(l, ":"); ok {
			if f, err := strconv.ParseFloat(val, 64); err == nil {
				out[k] = f
			}
		}
	}
	return out, nil
}

// cacheCounters reads the plan-cache counters from GRAPH.EXPLAIN's
// "plan: cached|planned | hits=… misses=…" header. hit reports whether
// this EXPLAIN's own lookup was a hit.
func cacheCounters(c *conn, query string) (counters map[string]float64, hit bool, err error) {
	v, err := c.call("GRAPH.EXPLAIN", graphName, query)
	if err != nil {
		return nil, false, err
	}
	ls, err := lines(v)
	if err != nil || len(ls) == 0 {
		return nil, false, fmt.Errorf("GRAPH.EXPLAIN: no plan-cache header (%v)", err)
	}
	src, kv, ok := strings.Cut(ls[0], " | ")
	if !ok || !strings.HasPrefix(src, "plan: ") {
		return nil, false, fmt.Errorf("GRAPH.EXPLAIN: unexpected header %q", ls[0])
	}
	counters = map[string]float64{}
	for _, f := range strings.Fields(kv) {
		if k, val, ok := strings.Cut(f, "="); ok {
			if x, err := strconv.ParseFloat(val, 64); err == nil {
				counters[k] = x
			}
		}
	}
	return counters, src == "plan: cached", nil
}

// profileStats accumulates operator self times from GRAPH.PROFILE.
type profileStats struct {
	n     int
	self  map[string]float64 // per operator name, summed over the sample
	group map[string]float64 // scan | traverse | other
	hops  int                // traversal lines with a kernel annotation
	pull  int                // of which ran pull or mixed
}

func (p *profileStats) opNames() []string {
	names := make([]string, 0, len(p.self))
	for k := range p.self {
		names = append(names, k)
	}
	sort.Strings(names)
	return names
}

func (p *profileStats) pullShare() float64 {
	if p.hops == 0 {
		return 0
	}
	return float64(p.pull) / float64(p.hops)
}

func opGroup(name string) string {
	switch {
	case strings.Contains(name, "Scan"):
		return "scan"
	case strings.Contains(name, "Traverse") || strings.Contains(name, "Expand"):
		return "traverse"
	}
	return "other"
}

// profileReads runs a fixed sample of the workload's reads under
// GRAPH.PROFILE. Operator times there are inclusive of children; self time
// is the operator's time minus its children's.
func profileReads(c *conn, o options, ds *dataset) (*profileStats, error) {
	p := &profileStats{self: map[string]float64{}, group: map[string]float64{}}
	st := newStream(ds, o.seed, profileID, o.workload.reads, 0, 0, 1)
	for i := 0; i < profileSample; i++ {
		v, err := c.call("GRAPH.PROFILE", graphName, st.next().text)
		if err != nil {
			return nil, err
		}
		ls, err := lines(v)
		if err != nil {
			return nil, fmt.Errorf("GRAPH.PROFILE: %w", err)
		}
		if err := p.add(ls); err != nil {
			return nil, err
		}
		p.n++
	}
	return p, nil
}

func (p *profileStats) add(ls []string) error {
	type op struct {
		name  string
		depth int
		self  float64
	}
	var ops []op
	var stack []int // indexes of the open ancestors
	for _, l := range ls {
		_, t, ok := strings.Cut(l, "Execution time: ")
		if !ok {
			continue // admission, plan and scheduler header lines
		}
		incl, err := strconv.ParseFloat(strings.TrimSuffix(t, " ms"), 64)
		if err != nil {
			return fmt.Errorf("GRAPH.PROFILE: bad time in %q", l)
		}
		trimmed := strings.TrimLeft(l, " ")
		depth := (len(l) - len(trimmed)) / 4
		name, _, _ := strings.Cut(trimmed, " | ")
		for len(stack) > 0 && ops[stack[len(stack)-1]].depth >= depth {
			stack = stack[:len(stack)-1]
		}
		if len(stack) > 0 {
			ops[stack[len(stack)-1]].self -= incl
		}
		ops = append(ops, op{name: name, depth: depth, self: incl})
		stack = append(stack, len(ops)-1)
		if _, k, ok := strings.Cut(l, "kernel: "); ok {
			p.hops++
			if strings.HasPrefix(k, "pull") || strings.HasPrefix(k, "mixed") {
				p.pull++
			}
		}
	}
	if len(ops) == 0 {
		return fmt.Errorf("GRAPH.PROFILE: no operator lines in %q", ls)
	}
	for _, o := range ops {
		p.self[o.name] += o.self
		p.group[opGroup(o.name)] += o.self
	}
	return nil
}

// replayRec is one request replayed in-process; times in microseconds.
type replayRec struct {
	decode, params, query, exec, encode, total, parse float64
	bytes                                             float64
}

type replayResult struct {
	attempted, failed    int
	reads, writes        []replayRec
	pendingMax           int
	nodesPerS, edgesPerS float64
	spans                []span
}

// replay loads the graph in-process through the same queries as the RESP
// set-up, into a graph created by server.New, and replays the workload's
// request streams from their start with a core.Config mirroring the
// server's, timing each layer's public call: resp decode, cypher params,
// core query (with the executor's own time beneath it) and resp encode.
// cypher.Parse of each text is timed beside the request, not inside it.
// Workloads without writes then replay the write probe.
func replay(o options, ds *dataset, steps []loadStep, epoch time.Time, fails *failLog) (*replayResult, error) {
	srv := server.New(server.Options{})
	defer srv.Close()
	g := srv.Graph(graphName)
	threads := 1
	if o.workload.autoThreads {
		threads = runtime.GOMAXPROCS(0)
	}
	cfg := core.Config{
		OpThreads:      threads,
		TraverseBatch:  core.DefaultTraverseBatch,
		TraverseKernel: "auto",
		PropertyStore:  "columnar",
		PlanCache:      core.NewPlanCache(core.DefaultPlanCacheSize),
	}
	rp := &replayResult{}
	var nodeTime, edgeTime time.Duration
	var nodes, edges int
	for _, st := range steps {
		t0 := time.Now()
		rs, err := core.Query(g, st.query, nil, cfg)
		el := time.Since(t0)
		if err != nil {
			return nil, fmt.Errorf("in-process load: %w", err)
		}
		if !slices.Contains(rs.Stats.Lines(), st.want) {
			return nil, fmt.Errorf("in-process load: statistics %v lack %q", rs.Stats.Lines(), st.want)
		}
		switch {
		case st.nodes > 0:
			nodeTime += el
			nodes += st.nodes
		case st.rel == "F":
			edgeTime += el
			edges += st.edges
		}
	}
	rp.nodesPerS = float64(nodes) / nodeTime.Seconds()
	rp.edgesPerS = float64(edges) / edgeTime.Seconds()

	var src bytes.Reader
	rd := resp.NewReader(&src)
	var out bytes.Buffer
	wr := resp.NewWriter(&out)
	var id int64 = 1 << 50 // disjoint from the RESP window's request ids
	// do runs one request; record false runs it as warm-up, untimed.
	do := func(req request, record bool) error {
		id++
		frame := req.frame()
		t0 := time.Now()
		src.Reset(frame)
		args, err := rd.ReadCommand()
		t1 := time.Now()
		if err != nil || len(args) != 3 {
			return fmt.Errorf("in-process decode of %q: %v", frame, err)
		}
		params, query, err := cypher.ParseParams(args[2])
		t2 := time.Now()
		if err != nil {
			return fmt.Errorf("in-process params: %w", err)
		}
		var rs *core.ResultSet
		if req.read() {
			rs, err = core.ROQuery(g, query, params, cfg)
		} else {
			rs, err = core.Query(g, query, params, cfg)
		}
		t3 := time.Now()
		if err != nil {
			return fmt.Errorf("in-process query %q: %w", query, err)
		}
		out.Reset()
		err = wr.WriteReply(encodeResult(rs))
		t4 := time.Now()
		if err != nil {
			return fmt.Errorf("in-process encode: %w", err)
		}
		replyBytes := out.Len()
		if _, err := cypher.Parse(query); err != nil {
			return fmt.Errorf("in-process parse: %w", err)
		}
		t5 := time.Now()

		v, err := readReply(bufio.NewReader(&out))
		if err != nil {
			return fmt.Errorf("in-process reply: %w", err)
		}
		if !record {
			_, err := req.check(v)
			return err
		}
		rp.attempted++
		if _, err := req.check(v); err != nil {
			rp.failed++
			fails.report(err)
			return nil
		}

		exec := rs.Stats.ExecutionTime
		us := func(d time.Duration) float64 { return float64(d) / 1e3 }
		rec := replayRec{
			decode: us(t1.Sub(t0)), params: us(t2.Sub(t1)), query: us(t3.Sub(t2)), exec: us(exec),
			encode: us(t4.Sub(t3)), total: us(t4.Sub(t0)), parse: us(t5.Sub(t4)), bytes: float64(replyBytes),
		}
		at := func(t time.Time) int64 { return int64(t.Sub(epoch)) }
		rp.spans = append(rp.spans,
			span{Req: id, Name: "request", Start: at(t0), Dur: int64(t4.Sub(t0))},
			span{Req: id, Name: "resp.decode", Parent: "request", Start: at(t0), Dur: int64(t1.Sub(t0))},
			span{Req: id, Name: "cypher.params", Parent: "request", Start: at(t1), Dur: int64(t2.Sub(t1))},
			span{Req: id, Name: "core.query", Parent: "request", Start: at(t2), Dur: int64(t3.Sub(t2))},
			span{Req: id, Name: "core.exec", Parent: "core.query", Start: at(t3.Add(-exec)), Dur: int64(exec)},
			span{Req: id, Name: "resp.encode", Parent: "request", Start: at(t3), Dur: int64(t4.Sub(t3))},
			span{Req: id, Name: "cypher.parse", Start: at(t4), Dur: int64(t5.Sub(t4))},
		)
		if req.read() {
			rp.reads = append(rp.reads, rec)
			return nil
		}
		rp.writes = append(rp.writes, rec)
		g.RLock()
		rp.pendingMax = max(rp.pendingMax, g.PendingDeltas())
		g.RUnlock()
		return nil
	}

	for i := range o.workload.conns {
		warm := newStream(ds, o.seed, warmID+i, o.workload.reads, 0, 0, 1)
		for n := 0; n < warmReads; n++ {
			if err := do(warm.next(), false); err != nil {
				return nil, fmt.Errorf("in-process warm-up: %w", err)
			}
		}
	}
	streams := windowStreams(o, ds, 0)
	deadline := time.Now().Add(replayBudget)
	for n := 0; n < replayLimit && time.Now().Before(deadline); n++ {
		if err := do(streams[n%len(streams)].next(), true); err != nil {
			return nil, err
		}
	}
	if o.workload.writeShare == 0 {
		probe := probeStream(o, ds)
		for n := 0; n < replayProbe; n++ {
			if err := do(probe.next(), true); err != nil {
				return nil, err
			}
		}
	}
	return rp, nil
}

// encodeResult mirrors the server's reply shape for a result set:
// [columns], [rows...], [statistics...], with nulls as nil, integers and
// booleans as integers and everything else as its string form.
func encodeResult(rs *core.ResultSet) []any {
	header := make([]any, len(rs.Columns))
	for i, c := range rs.Columns {
		header[i] = c
	}
	rows := make([]any, len(rs.Rows))
	for i, row := range rs.Rows {
		cells := make([]any, len(row))
		for j, v := range row {
			switch v.Kind {
			case value.KindNull:
				cells[j] = nil
			case value.KindInt:
				cells[j] = v.Int()
			case value.KindBool:
				cells[j] = int64(0)
				if v.Bool() {
					cells[j] = int64(1)
				}
			default:
				cells[j] = v.String()
			}
		}
		rows[i] = cells
	}
	stats := rs.Stats.Lines()
	st := make([]any, len(stats))
	for i, s := range stats {
		st[i] = s
	}
	return []any{header, rows, st}
}

// writeSpans writes the run's spans as JSON lines once the run is over.
func writeSpans(path string, spans []span) error {
	f, err := os.Create(path)
	if err != nil {
		return fmt.Errorf("spans: %w", err)
	}
	w := bufio.NewWriter(f)
	enc := json.NewEncoder(w)
	for _, s := range spans {
		if err := enc.Encode(s); err != nil {
			f.Close()
			return fmt.Errorf("spans: %w", err)
		}
	}
	if err := w.Flush(); err != nil {
		f.Close()
		return fmt.Errorf("spans: %w", err)
	}
	return f.Close()
}
