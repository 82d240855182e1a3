// Command e2ebench is the repository's end-to-end benchmark. It starts the
// shipped redisgraph-server as a child process, bulk-loads a seeded
// Graph500 RMAT graph over RESP and drives one closed-loop workload from
// this process. With -trace 0 it prints the end-to-end metrics; with
// -trace 1 it prints per-layer metrics from a traced run, counters the
// server exposes and an in-process replay of the same requests.
//
//	bash e2ebench/run.sh --workload point-lookup --seed 1 --seconds 15 --trace 0
//
// The last line of standard output is one JSON object with the keys
// correct, attempted, failed and metrics.
package main

import (
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"os"
	"os/signal"
	"runtime"
	"runtime/debug"
	"slices"
	"strings"
	"syscall"
	"time"

	"redisgraph/internal/bench"
)

const (
	// setups is how many times an untraced run sets up from scratch;
	// setup_s is their median, and a window is measured after each.
	setups = 3
	// warmReads is how many reads per connection warm the plan cache.
	warmReads = 64
	// runLimit stops a run that overstays, killing its server.
	runLimit = 170 * time.Second
	// setupTimeout bounds one set-up's socket I/O.
	setupTimeout = 60 * time.Second
)

// Stream ids: measuring round r's connection i uses r*16+i.
const (
	warmID    = 1000 // + connection
	probeID   = 2000
	profileID = 3000
)

type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

type result struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

// report collects metrics and prints each as it is added.
type report struct {
	metrics map[string]metric
}

func (r *report) add(name string, v float64, unit, note string) {
	r.metrics[name] = metric{Value: v, Unit: unit}
	printMetric(name, v, unit, note)
}

// printMetric prints one metric line; metrics outside the result are
// printed only.
func printMetric(name string, v float64, unit, note string) {
	if note != "" {
		note = "  (" + note + ")"
	}
	fmt.Printf("%-36s %14.6g %-6s%s\n", name, v, unit, note)
}

type options struct {
	workload *workload
	seed     int64
	genSeed  int64
	seconds  int
	trace    bool
	server   string
	spans    string
}

func main() {
	var o options
	var wname string
	var trace int
	flag.StringVar(&wname, "workload", "", "workload: point-lookup | khop-analytics | write-mix")
	flag.Int64Var(&o.seed, "seed", 1, "workload seed: request streams, ages, k-hop seeds, :W edges")
	flag.Int64Var(&o.genSeed, "gen-seed", 1, "RMAT generator seed")
	flag.IntVar(&o.seconds, "seconds", 15, "measured seconds, split evenly over the windows")
	flag.IntVar(&trace, "trace", 0, "0: end-to-end metrics; 1: per-layer metrics from a traced run")
	flag.StringVar(&o.server, "server", "", "path to a built redisgraph-server binary")
	flag.StringVar(&o.spans, "spans", "", "file the traced run writes its spans to as JSON lines (empty: none)")
	flag.Parse()
	w, err := findWorkload(wname)
	switch {
	case err != nil:
	case o.seconds < 1:
		err = errors.New("-seconds must be at least 1")
	case trace != 0 && trace != 1:
		err = errors.New("-trace must be 0 or 1")
	case o.server == "":
		err = errors.New("-server is required (run.sh builds it)")
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, "e2ebench:", err)
		os.Exit(2)
	}
	o.workload, o.trace = w, trace == 1
	os.Exit(run(o))
}

func run(o options) int {
	// The load generator allocates little per request; a lazier GC keeps
	// its pauses out of client-side latencies.
	debug.SetGCPercent(400)
	procs := &procSet{}
	defer procs.stopAll()
	sig := make(chan os.Signal, 1)
	signal.Notify(sig, os.Interrupt, syscall.SIGTERM)
	go func() {
		s := <-sig
		procs.stopAll()
		fmt.Fprintf(os.Stderr, "e2ebench: stopped by %v\n", s)
		os.Exit(1)
	}()
	watchdog := time.AfterFunc(runLimit, func() {
		procs.stopAll()
		fmt.Fprintf(os.Stderr, "e2ebench: run exceeded %s\n", runLimit)
		os.Exit(1)
	})
	defer watchdog.Stop()

	ds := newDataset(o.genSeed, o.seed)
	steps := ds.loadSteps()
	stamp := map[string]any{
		"host": bench.Host(), "nproc": runtime.NumCPU(), "workload": o.workload.name,
		"seed": o.seed, "gen_seed": o.genSeed, "seconds": o.seconds, "trace": o.trace,
		"rmat_scale": rmatScale, "generated_nodes": ds.n, "generated_edges": len(ds.src),
	}
	rep := &report{metrics: map[string]metric{}}
	var res *result
	var err error
	if o.trace {
		res, err = runTraced(o, procs, ds, steps, stamp, rep)
	} else {
		res, err = runUntraced(o, procs, ds, steps, stamp, rep)
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, "e2ebench:", err)
		return 1
	}
	res.Metrics = rep.metrics
	res.Correct = res.Failed == 0
	fmt.Printf("error_rate %.6g (failed %d of %d attempted)\n", float64(res.Failed)/float64(res.Attempted), res.Failed, res.Attempted)
	if b, err := json.Marshal(map[string]any{"stamp": stamp}); err == nil {
		fmt.Println(string(b))
	}
	b, err := json.Marshal(res)
	if err != nil {
		fmt.Fprintln(os.Stderr, "e2ebench: encode result:", err)
		return 1
	}
	fmt.Println(string(b))
	return 0
}

// session is one set-up server with its open connections.
type session struct {
	proc  *serverProc
	conns []*conn
	setup time.Duration
	nodes int
	edges map[string]int // per relationship type
}

func (s *session) close() {
	for _, c := range s.conns {
		c.close()
	}
	s.proc.stop()
}

// setUp launches a server and loads the graph over RESP: nodes, the uid
// index, :F edges, then the :W warm-up edges whose batch crosses the delta
// threshold so the first sync happens here. It then applies the workload's
// config and warms the plan cache with every read shape. The set-up time
// runs from launch until warm-up is done.
func setUp(o options, procs *procSet, ds *dataset, steps []loadStep) (*session, error) {
	t0 := time.Now()
	p, err := procs.launch(o.server)
	if err != nil {
		return nil, err
	}
	s := &session{proc: p, edges: map[string]int{}}
	fail := func(err error) (*session, error) {
		s.close()
		return nil, fmt.Errorf("set-up: %w", err)
	}
	for len(s.conns) < o.workload.conns {
		c, err := dial(p.addr)
		if err != nil {
			return fail(err)
		}
		s.conns = append(s.conns, c)
		if err := c.setDeadline(time.Now().Add(setupTimeout)); err != nil {
			return fail(err)
		}
	}
	c := s.conns[0]
	for _, st := range steps {
		v, err := c.call("GRAPH.QUERY", graphName, st.query)
		if err != nil {
			return fail(err)
		}
		if !hasStat(v, st.want) {
			return fail(fmt.Errorf("load step reply %v lacks %q", v, st.want))
		}
		s.nodes += st.nodes
		s.edges[st.rel] += st.edges
	}
	if o.workload.autoThreads {
		if _, err := c.call("GRAPH.CONFIG", "SET", "MAX_QUERY_THREADS", "0"); err != nil {
			return fail(err)
		}
	}
	for i, c := range s.conns {
		warm := newStream(ds, o.seed, warmID+i, o.workload.reads, 0, 0, 1)
		for n := 0; n < warmReads; n++ {
			req := warm.next()
			v, err := c.do(req.frame())
			if err != nil {
				return fail(err)
			}
			if _, err := req.check(v); err != nil {
				return fail(err)
			}
		}
	}
	s.setup = time.Since(t0)
	return s, nil
}

// stamp records what the server holds after set-up.
func (s *session) stamp(stamp map[string]any) {
	stamp["loaded_nodes"], stamp["loaded_f_edges"], stamp["loaded_w_edges"] = s.nodes, s.edges["F"], s.edges["W"]
}

func hasStat(v any, want string) bool {
	sections, ok := v.([]any)
	if !ok || len(sections) != 3 {
		return false
	}
	stats, _ := sections[2].([]any)
	return slices.Contains(stats, any(want))
}

// windowStreams builds the per-connection streams of measuring round r.
func windowStreams(o options, ds *dataset, r int) []*stream {
	w := o.workload
	out := make([]*stream, w.conns)
	for i := range out {
		out[i] = newStream(ds, o.seed, r*16+i, w.reads, w.writeShare, i, w.conns)
	}
	return out
}

// probeStream is the in-process write probe of workloads without writes:
// the write-mix write shapes, owning every :W edge.
func probeStream(o options, ds *dataset) *stream {
	return newStream(ds, o.seed, probeID, nil, 1, 0, 1)
}

// runUntraced sets up from scratch several times and measures one
// closed-loop window of an equal share of the run length after each.
// Spreading the measured time over the whole run and over several server
// processes, and reporting the median window, keeps one slow stretch of the
// host from deciding the result.
//
// The p99 and write latencies are printed but are not in the result: on a
// shared host the read p99 swings too far between runs to gate on, and
// every result metric must exist on every workload.
func runUntraced(o options, procs *procSet, ds *dataset, steps []loadStep, stamp map[string]any, rep *report) (*result, error) {
	res := &result{}
	fails := &failLog{}
	var times, rss, qps, r50, r99, w50, w99 []float64
	var nReads, nWrites int
	for r := 0; r < setups; r++ {
		s, err := setUp(o, procs, ds, steps)
		if err != nil {
			return nil, err
		}
		times = append(times, s.setup.Seconds())
		s.stamp(stamp)
		win := runWindow(s.conns, windowStreams(o, ds, r), time.Duration(o.seconds)*time.Second/setups, time.Time{}, fails)
		res.Attempted += win.attempted
		res.Failed += win.failed
		mb, err := s.proc.peakRSSMB()
		s.close()
		if err != nil {
			return nil, err
		}
		if len(win.readLat) == 0 || (o.workload.writeShare > 0 && len(win.writeLat) == 0) {
			return nil, fmt.Errorf("no successful requests to measure (%d failed)", res.Failed)
		}
		rss = append(rss, mb)
		qps = append(qps, win.qps())
		r50 = append(r50, ms(quantile(win.readLat, 0.50)))
		r99 = append(r99, ms(quantile(win.readLat, 0.99)))
		nReads += len(win.readLat)
		if o.workload.writeShare > 0 {
			w50 = append(w50, ms(quantile(win.writeLat, 0.50)))
			w99 = append(w99, ms(quantile(win.writeLat, 0.99)))
			nWrites += len(win.writeLat)
		}
	}

	perWindow := func(v []float64) string { return fmt.Sprintf("median of %d windows: %s", len(v), fmtValues(v)) }
	rep.add("setup_s", median(times), "s", fmt.Sprintf("median of %d set-ups: %s", len(times), fmtValues(times)))
	rep.add("qps", median(qps), "1/s", fmt.Sprintf("%d connections, %s", o.workload.conns, perWindow(qps)))
	n := fmt.Sprintf("n=%d; ", nReads)
	rep.add("read_p50_ms", median(r50), "ms", n+perWindow(r50))
	printMetric("read_p99_ms", median(r99), "ms", n+perWindow(r99))
	if o.workload.writeShare > 0 {
		n = fmt.Sprintf("n=%d; ", nWrites)
		printMetric("write_p50_ms", median(w50), "ms", n+perWindow(w50))
		printMetric("write_p99_ms", median(w99), "ms", n+perWindow(w99))
	}
	rep.add("server_rss_mb", median(rss), "MiB", "VmHWM after each window, "+perWindow(rss))
	return res, nil
}

func fmtValues(v []float64) string {
	parts := make([]string, len(v))
	for i, x := range v {
		parts[i] = fmt.Sprintf("%.4g", x)
	}
	return strings.Join(parts, " ")
}
