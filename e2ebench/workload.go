package main

import (
	"fmt"
	"math/rand"
	"slices"
	"strconv"
	"strings"
)

// shape is one request template.
type shape int

const (
	hop1      shape = iota // indexed 1-hop count(b) over :F
	point                  // indexed point projection of uid, age
	khop3                  // indexed *1..3 count(b) over :F
	filterAgg              // column filter on a.age, aggregate over :F
	wCreate                // CREATE a :W edge between two uids
	wDelete                // DELETE one :W edge
	wSet                   // SET a.age to the value it already holds
)

// workload is a closed-loop traffic mix.
type workload struct {
	name  string
	conns int
	// autoThreads sends GRAPH.CONFIG SET MAX_QUERY_THREADS 0 at set-up so
	// each query may use every core.
	autoThreads bool
	reads       []shape // drawn uniformly
	writeShare  float64
}

// workloads are the benchmark's traffic mixes; BENCHMARK.json records why
// each was chosen.
var workloads = []*workload{
	{name: "point-lookup", conns: 2, reads: []shape{hop1, point}},
	{name: "khop-analytics", conns: 1, autoThreads: true, reads: []shape{khop3, filterAgg}},
	{name: "write-mix", conns: 2, reads: []shape{hop1, point}, writeShare: 0.2},
}

func findWorkload(name string) (*workload, error) {
	for _, w := range workloads {
		if w.name == name {
			return w, nil
		}
	}
	names := make([]string, len(workloads))
	for i, w := range workloads {
		names[i] = w.name
	}
	return nil, fmt.Errorf("unknown workload %q (want one of %s)", name, strings.Join(names, ", "))
}

// request is one generated command with the answer the oracle expects.
type request struct {
	shape shape
	text  string
	want  []any  // the single expected row (reads)
	stat  string // the statistics line the reply must carry (writes)
}

func (r *request) read() bool { return r.shape < wCreate }

func (r *request) frame() []byte {
	cmd := "GRAPH.QUERY"
	if r.read() {
		cmd = "GRAPH.RO_QUERY"
	}
	return command(cmd, graphName, r.text)
}

// stream generates one connection's requests. The sequence depends only on
// the seed, the stream id and the :W edges the stream owns, never on
// replies, so a replay from the same start reproduces it.
type stream struct {
	ds         *dataset
	rng        *rand.Rand
	reads      []shape
	writeShare float64
	conn       int // this stream creates :W edges only from uids ≡ conn mod nconn
	nconn      int
	live       []pair // :W edges this stream owns, for deletes
	liveSet    map[pair]bool
}

// newStream starts stream id of a workload. Streams that write own the
// warm-up :W edges whose source uid is ≡ conn mod nconn.
func newStream(ds *dataset, seed int64, id int, reads []shape, writeShare float64, conn, nconn int) *stream {
	s := &stream{
		ds: ds, rng: rand.New(rand.NewSource(seed*1_000_003 + int64(id))),
		reads: reads, writeShare: writeShare, conn: conn, nconn: nconn,
		liveSet: map[pair]bool{},
	}
	if writeShare > 0 {
		for _, p := range ds.warm {
			if p.src%nconn == conn {
				s.live = append(s.live, p)
				s.liveSet[p] = true
			}
		}
	}
	return s
}

func (s *stream) next() request {
	if s.writeShare > 0 && s.rng.Float64() < s.writeShare {
		return s.nextWrite()
	}
	return s.nextRead(s.reads[s.rng.Intn(len(s.reads))])
}

func (s *stream) nextRead(sh shape) request {
	ds := s.ds
	switch sh {
	case hop1:
		u := s.rng.Intn(ds.n)
		return request{shape: sh, want: []any{int64(ds.outDeg[u])},
			text: "CYPHER s=" + strconv.Itoa(u) + " MATCH (a:Node {uid: $s})-[:F]->(b) RETURN count(b)"}
	case point:
		u := s.rng.Intn(ds.n)
		return request{shape: sh, want: []any{int64(u), int64(ds.age[u])},
			text: "CYPHER s=" + strconv.Itoa(u) + " MATCH (a:Node {uid: $s}) RETURN a.uid, a.age"}
	case khop3:
		u := ds.seeds[s.rng.Intn(len(ds.seeds))]
		return request{shape: sh, want: []any{int64(ds.khop[u])},
			text: "CYPHER s=" + strconv.Itoa(u) + " MATCH (a:Node {uid: $s})-[:F*1..3]->(b) RETURN count(b)"}
	case filterAgg:
		t := s.rng.Intn(ageRange)
		var mx any
		if ds.aggMax[t] >= 0 {
			mx = int64(ds.aggMax[t])
		}
		return request{shape: sh, want: []any{int64(ds.aggCount[t]), mx},
			text: "CYPHER t=" + strconv.Itoa(t) + " MATCH (a:Node)-[:F]->(b:Node) WHERE a.age = $t RETURN count(b), max(b.age)"}
	}
	panic(fmt.Sprintf("nextRead: shape %d is not a read", sh))
}

// nextWrite draws CREATE 40%, DELETE 40%, SET 20%. Values are inlined so
// every write text is distinct. SET writes the age the node already has,
// which keeps the point-projection oracle exact while writes run.
func (s *stream) nextWrite() request {
	ds := s.ds
	r := s.rng.Float64()
	switch {
	case r < 0.4 || (r < 0.8 && len(s.live) == 0):
		var p pair
		for {
			p = pair{s.ownedUID(), s.rng.Intn(ds.n)}
			if p.src != p.dst && !s.liveSet[p] {
				break
			}
		}
		s.live = append(s.live, p)
		s.liveSet[p] = true
		return request{shape: wCreate, stat: "Relationships created: 1",
			text: fmt.Sprintf("MATCH (a:Node {uid: %d}), (b:Node {uid: %d}) CREATE (a)-[:W]->(b)", p.src, p.dst)}
	case r < 0.8:
		i := s.rng.Intn(len(s.live))
		p := s.live[i]
		s.live[i] = s.live[len(s.live)-1]
		s.live = s.live[:len(s.live)-1]
		delete(s.liveSet, p)
		return request{shape: wDelete, stat: "Relationships deleted: 1",
			text: fmt.Sprintf("MATCH (a:Node {uid: %d})-[w:W]->(b:Node {uid: %d}) DELETE w", p.src, p.dst)}
	default:
		u := s.ownedUID()
		return request{shape: wSet, stat: "Properties set: 1",
			text: fmt.Sprintf("MATCH (a:Node {uid: %d}) SET a.age = %d", u, ds.age[u])}
	}
}

// ownedUID draws a uid ≡ conn mod nconn, so concurrent streams never write
// the same :W edge.
func (s *stream) ownedUID() int {
	for {
		if u := s.rng.Intn(s.ds.n); u%s.nconn == s.conn {
			return u
		}
	}
}

// check validates a reply against the oracle and returns its row count.
func (r *request) check(v any) (rows int, err error) {
	if e, ok := v.(errReply); ok {
		return 0, fmt.Errorf("error reply: %s", string(e))
	}
	sections, ok := v.([]any)
	if !ok || len(sections) != 3 {
		return 0, fmt.Errorf("want a 3-section result, got %T", v)
	}
	rowsArr, _ := sections[1].([]any)
	if r.read() {
		if len(rowsArr) != 1 {
			return len(rowsArr), fmt.Errorf("%s: want 1 row, got %d", r.text, len(rowsArr))
		}
		row, _ := rowsArr[0].([]any)
		if !slices.Equal(row, r.want) {
			return 1, fmt.Errorf("%s: got row %v, want %v", r.text, row, r.want)
		}
		return 1, nil
	}
	if stats, _ := sections[2].([]any); slices.Contains(stats, any(r.stat)) {
		return len(rowsArr), nil
	}
	return len(rowsArr), fmt.Errorf("%s: statistics %v lack %q", r.text, sections[2], r.stat)
}

const execPrefix = "Query internal execution time: "

// execTime extracts the reply trailer's execution time in milliseconds.
func execTime(v any) (float64, bool) {
	sections, ok := v.([]any)
	if !ok || len(sections) != 3 {
		return 0, false
	}
	stats, _ := sections[2].([]any)
	if len(stats) == 0 {
		return 0, false
	}
	last, _ := stats[len(stats)-1].(string)
	num, ok := strings.CutPrefix(last, execPrefix)
	if !ok {
		return 0, false
	}
	ms, err := strconv.ParseFloat(strings.TrimSuffix(num, " milliseconds"), 64)
	return ms, err == nil
}
