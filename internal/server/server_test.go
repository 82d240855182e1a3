package server

import (
	"bytes"
	"fmt"
	"io"
	"net"
	"strings"
	"sync"
	"testing"
	"time"

	"redisgraph/internal/client"
	"redisgraph/internal/core"
	"redisgraph/internal/graph"
	"redisgraph/internal/pool"
	"redisgraph/internal/resp"
	"redisgraph/internal/value"
)

func startServer(t *testing.T) (*Server, *client.Client) {
	t.Helper()
	s := New(Options{Addr: "127.0.0.1:0", ThreadCount: 4})
	if err := s.Start(); err != nil {
		t.Fatal(err)
	}
	t.Cleanup(s.Close)
	c, err := client.Dial(s.Addr())
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { c.Close() })
	return s, c
}

func TestPingEchoSetGet(t *testing.T) {
	_, c := startServer(t)
	if v, err := c.Do("PING"); err != nil || v.(resp.SimpleString) != "PONG" {
		t.Fatalf("%v %v", v, err)
	}
	if v, err := c.Do("ECHO", "hello"); err != nil || v.(string) != "hello" {
		t.Fatalf("%v %v", v, err)
	}
	if v, err := c.Do("SET", "k", "v"); err != nil || v.(resp.SimpleString) != "OK" {
		t.Fatalf("%v %v", v, err)
	}
	if v, err := c.Do("GET", "k"); err != nil || v.(string) != "v" {
		t.Fatalf("%v %v", v, err)
	}
	if v, err := c.Do("GET", "missing"); err != nil || v != nil {
		t.Fatalf("%v %v", v, err)
	}
	if v, err := c.Do("EXISTS", "k", "missing"); err != nil || v.(int64) != 1 {
		t.Fatalf("%v %v", v, err)
	}
	if v, err := c.Do("DEL", "k"); err != nil || v.(int64) != 1 {
		t.Fatalf("%v %v", v, err)
	}
}

func TestUnknownCommand(t *testing.T) {
	_, c := startServer(t)
	if _, err := c.Do("NOPE"); err == nil || !strings.Contains(err.Error(), "unknown command") {
		t.Fatalf("err = %v", err)
	}
}

func TestGraphQueryLifecycle(t *testing.T) {
	_, c := startServer(t)
	if _, err := c.Query("g", `CREATE (:Person {name: 'alice'})-[:KNOWS]->(:Person {name: 'bob'})`); err != nil {
		t.Fatal(err)
	}
	rep, err := c.Query("g", `MATCH (a:Person)-[:KNOWS]->(b) RETURN a.name, b.name`)
	if err != nil {
		t.Fatal(err)
	}
	if len(rep) != 3 {
		t.Fatalf("reply sections: %d", len(rep))
	}
	header := rep[0].([]any)
	if len(header) != 2 || header[0].(string) != "a.name" {
		t.Fatalf("header: %v", header)
	}
	rows := rep[1].([]any)
	if len(rows) != 1 {
		t.Fatalf("rows: %v", rows)
	}
	row := rows[0].([]any)
	if row[0].(string) != "alice" || row[1].(string) != "bob" {
		t.Fatalf("row: %v", row)
	}
	stats := rep[2].([]any)
	if len(stats) == 0 || !strings.Contains(stats[len(stats)-1].(string), "execution time") {
		t.Fatalf("stats: %v", stats)
	}

	// KEYS and GRAPH.LIST see the graph.
	if v, _ := c.Do("GRAPH.LIST"); len(v.([]any)) != 1 {
		t.Fatalf("graph.list: %v", v)
	}
	if v, _ := c.Do("DBSIZE"); v.(int64) != 1 {
		t.Fatalf("dbsize: %v", v)
	}

	// EXPLAIN returns plan lines.
	v, err := c.Do("GRAPH.EXPLAIN", "g", `MATCH (n:Person) RETURN count(n)`)
	if err != nil {
		t.Fatal(err)
	}
	joined := fmt.Sprint(v)
	if !strings.Contains(joined, "NodeByLabelScan") {
		t.Fatalf("explain: %v", v)
	}

	// PROFILE includes record counts.
	v, err = c.Do("GRAPH.PROFILE", "g", `MATCH (n:Person) RETURN count(n)`)
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(fmt.Sprint(v), "Records produced") {
		t.Fatalf("profile: %v", v)
	}

	// RO_QUERY rejects writes.
	if _, err := c.Do("GRAPH.RO_QUERY", "g", `CREATE (:X)`); err == nil {
		t.Fatal("want RO error")
	}

	// DELETE removes the graph.
	if v, err := c.Do("GRAPH.DELETE", "g"); err != nil || v.(resp.SimpleString) != "OK" {
		t.Fatalf("%v %v", v, err)
	}
	if _, err := c.Do("GRAPH.DELETE", "g"); err == nil {
		t.Fatal("want missing-graph error")
	}
}

func TestCypherParameterPrefix(t *testing.T) {
	_, c := startServer(t)
	if _, err := c.Query("g", `CREATE (:N {uid: 7, name: 'x'})`); err != nil {
		t.Fatal(err)
	}
	rep, err := c.Query("g", `CYPHER id=7 who='x' MATCH (n:N {uid: $id}) WHERE n.name = $who RETURN count(n)`)
	if err != nil {
		t.Fatal(err)
	}
	rows := rep[1].([]any)
	if rows[0].([]any)[0].(int64) != 1 {
		t.Fatalf("rows: %v", rows)
	}
}

func TestQueryErrorsAreRESPErrors(t *testing.T) {
	_, c := startServer(t)
	_, err := c.Do("GRAPH.QUERY", "g", "THIS IS NOT CYPHER")
	if err == nil {
		t.Fatal("want error")
	}
	var er resp.ErrorReply
	if !strings.Contains(err.Error(), "ERR") {
		t.Fatalf("err = %v (%T, %v)", err, err, er)
	}
}

func TestConcurrentClientsOrderedReplies(t *testing.T) {
	s, seedClient := startServer(t)
	if _, err := seedClient.Query("g", `CREATE (:N {uid: 1})`); err != nil {
		t.Fatal(err)
	}
	var wg sync.WaitGroup
	for i := 0; i < 8; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			c, err := client.Dial(s.Addr())
			if err != nil {
				t.Error(err)
				return
			}
			defer c.Close()
			for q := 0; q < 25; q++ {
				// Interleave keyspace and graph commands; replies must stay
				// in order per connection.
				if v, err := c.Do("ECHO", fmt.Sprint(q)); err != nil || v.(string) != fmt.Sprint(q) {
					t.Errorf("echo order broken: %v %v", v, err)
					return
				}
				rep, err := c.Query("g", `MATCH (n:N) RETURN count(n)`)
				if err != nil {
					t.Error(err)
					return
				}
				if rep[1].([]any)[0].([]any)[0].(int64) != 1 {
					t.Error("bad count")
					return
				}
			}
		}()
	}
	wg.Wait()
}

// TestPipelinedReadYourWrites sends a write and a read in one write on one
// connection, before reading either reply: a connection's commands run in
// the order sent, so every read sees the write pipelined before it.
func TestPipelinedReadYourWrites(t *testing.T) {
	s, _ := startServer(t)
	conn, err := net.Dial("tcp", s.Addr())
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	r := resp.NewReader(conn)
	send := func(cmds ...[]string) {
		t.Helper()
		var frames bytes.Buffer
		w := resp.NewWriter(&frames)
		for _, args := range cmds {
			if err := w.WriteCommand(args...); err != nil {
				t.Fatal(err)
			}
		}
		if _, err := conn.Write(frames.Bytes()); err != nil {
			t.Fatal(err)
		}
	}
	for i := 1; i <= 200; i++ {
		send([]string{"GRAPH.QUERY", "g", "CREATE (:N)"},
			[]string{"GRAPH.RO_QUERY", "g", "MATCH (a:N) RETURN count(a)"})
		if _, err := r.ReadReply(); err != nil {
			t.Fatalf("iteration %d: write: %v", i, err)
		}
		rep, err := r.ReadReply()
		if err != nil {
			t.Fatalf("iteration %d: read: %v", i, err)
		}
		if got := scalarRow(t, rep); got != int64(i) {
			t.Fatalf("iteration %d: count = %d, the read missed the write before it", i, got)
		}
	}
	// QUIT pipelined behind a command: both replies arrive, then the
	// server closes the connection.
	send([]string{"PING"}, []string{"QUIT"})
	for _, want := range []resp.SimpleString{"PONG", "OK"} {
		if v, err := r.ReadReply(); err != nil || v != want {
			t.Fatalf("want %q, got %v %v", want, v, err)
		}
	}
	if v, err := r.ReadReply(); err != io.EOF {
		t.Fatalf("after QUIT: want EOF, got %v %v", v, err)
	}
}

// TestGraphCommandPanicIsErrorReply plants a nil graph so GRAPH.QUERY
// panics: each panic must come back as that command's error reply and
// release its THREAD_COUNT slot, leaving the connection usable.
func TestGraphCommandPanicIsErrorReply(t *testing.T) {
	s, c := startServer(t)
	s.mu.Lock()
	s.graphs["broken"] = nil
	s.mu.Unlock()
	for i := 0; i <= cap(s.sem); i++ {
		if _, err := c.Query("broken", `MATCH (n) RETURN count(n)`); err == nil || !strings.Contains(err.Error(), "panic") {
			t.Fatalf("query %d on a nil graph: want a panic error, got %v", i, err)
		}
	}
	if _, err := c.Query("g", `CREATE (:N)`); err != nil {
		t.Fatalf("after the panics: %v", err)
	}
	rep, err := c.Query("g", `MATCH (n:N) RETURN count(n)`)
	if err != nil {
		t.Fatalf("after the panics: %v", err)
	}
	if got := scalarRow(t, rep); got != 1 {
		t.Fatalf("after the panics: count = %d, want 1", got)
	}
}

func TestGraphConfig(t *testing.T) {
	_, c := startServer(t)
	v, err := c.Do("GRAPH.CONFIG", "GET", "THREAD_COUNT")
	if err != nil {
		t.Fatal(err)
	}
	pair := v.([]any)
	if pair[0].(string) != "THREAD_COUNT" || pair[1].(int64) != 4 {
		t.Fatalf("config: %v", v)
	}
}

func TestGraphConfigGetAll(t *testing.T) {
	_, c := startServer(t)
	v, err := c.Do("GRAPH.CONFIG", "GET", "*")
	if err != nil {
		t.Fatal(err)
	}
	pairs := v.([]any)
	got := map[string]any{}
	for _, p := range pairs {
		pair := p.([]any)
		got[pair[0].(string)] = pair[1]
	}
	want := map[string]any{
		"THREAD_COUNT":           int64(4),
		"TIMEOUT":                int64(0),
		"MAX_QUERY_THREADS":      int64(1),
		"TRAVERSE_BATCH":         int64(core.DefaultTraverseBatch),
		"COST_PLANNER":           int64(1),
		"JOIN_PLANNER":           int64(1),
		"TRAVERSE_KERNEL":        "auto",
		"PROPERTY_STORE":         "columnar",
		"PLAN_CACHE_SIZE":        int64(core.DefaultPlanCacheSize),
		"PLAN_CACHE_MAX_BYTES":   int64(0),
		"MAX_CONCURRENT_QUERIES": int64(0),
		"ADMISSION_TIMEOUT":      int64(1000),
		"GLOBAL_THREAD_BUDGET":   int64(pool.Budget()),
		"FAIR_SCHEDULER":         int64(1),
	}
	if len(got) != len(want) {
		t.Fatalf("GET * pairs: %v", got)
	}
	for k, w := range want {
		if got[k] != w {
			t.Fatalf("GET * %s = %v, want %v (all: %v)", k, got[k], w, got)
		}
	}
}

func TestGraphConfigTraverseKernel(t *testing.T) {
	_, c := startServer(t)
	if _, err := c.Query("g", `CREATE (:N {x: 1})-[:L]->(:N {x: 2})-[:L]->(:N {x: 3})`); err != nil {
		t.Fatal(err)
	}
	for _, kernel := range []string{"push", "pull", "auto"} {
		if v, err := c.Do("GRAPH.CONFIG", "SET", "TRAVERSE_KERNEL", kernel); err != nil || v.(resp.SimpleString) != "OK" {
			t.Fatalf("SET TRAVERSE_KERNEL %s: %v %v", kernel, v, err)
		}
		v, err := c.Do("GRAPH.CONFIG", "GET", "TRAVERSE_KERNEL")
		if err != nil {
			t.Fatal(err)
		}
		if pair := v.([]any); pair[1].(string) != kernel {
			t.Fatalf("GET TRAVERSE_KERNEL after SET %s: %v", kernel, v)
		}
		// The forced kernel must serve identical query results.
		reply, err := c.Query("g", `MATCH (a:N)-[:L]->(b:N)-[:L]->(c:N) RETURN a.x, c.x`)
		if err != nil {
			t.Fatal(err)
		}
		if rows := reply[1].([]any); len(rows) != 1 || fmt.Sprint(rows[0]) != "[1 3]" {
			t.Fatalf("kernel %s rows: %v", kernel, reply[1])
		}
	}
	if _, err := c.Do("GRAPH.CONFIG", "SET", "TRAVERSE_KERNEL", "sideways"); err == nil {
		t.Fatal("expected an error for an invalid TRAVERSE_KERNEL")
	}
}

func TestGraphConfigCostPlanner(t *testing.T) {
	_, c := startServer(t)
	if _, err := c.Query("g", `CREATE (:Big {x: 1})-[:L]->(:Small {x: 2})`); err != nil {
		t.Fatal(err)
	}
	for _, setting := range []string{"0", "no", "1", "yes"} {
		if v, err := c.Do("GRAPH.CONFIG", "SET", "COST_PLANNER", setting); err != nil || v.(resp.SimpleString) != "OK" {
			t.Fatalf("SET COST_PLANNER %s: %v %v", setting, v, err)
		}
		want := int64(1)
		if setting == "0" || setting == "no" {
			want = 0
		}
		v, err := c.Do("GRAPH.CONFIG", "GET", "COST_PLANNER")
		if err != nil || v.([]any)[1].(int64) != want {
			t.Fatalf("GET COST_PLANNER after %s: %v %v", setting, v, err)
		}
		// Queries agree under both planners.
		rep, err := c.Query("g", `MATCH (a:Big)-[:L]->(b:Small) RETURN count(b)`)
		if err != nil {
			t.Fatal(err)
		}
		if rows := rep[1].([]any); len(rows) != 1 || rows[0].([]any)[0].(int64) != 1 {
			t.Fatalf("COST_PLANNER=%s rows: %v", setting, rep[1])
		}
	}
	if _, err := c.Do("GRAPH.CONFIG", "SET", "COST_PLANNER", "maybe"); err == nil {
		t.Fatal("SET COST_PLANNER maybe must fail")
	}
}

func TestGraphConfigJoinPlanner(t *testing.T) {
	_, c := startServer(t)
	if _, err := c.Query("g", `CREATE (:L {k: 1})-[:E1]->(:M {k: 1}), (:F {k: 1})-[:E2]->(:T {k: 1})`); err != nil {
		t.Fatal(err)
	}
	for _, setting := range []string{"0", "no", "1", "yes"} {
		if v, err := c.Do("GRAPH.CONFIG", "SET", "JOIN_PLANNER", setting); err != nil || v.(resp.SimpleString) != "OK" {
			t.Fatalf("SET JOIN_PLANNER %s: %v %v", setting, v, err)
		}
		want := int64(1)
		if setting == "0" || setting == "no" {
			want = 0
		}
		v, err := c.Do("GRAPH.CONFIG", "GET", "JOIN_PLANNER")
		if err != nil || v.([]any)[1].(int64) != want {
			t.Fatalf("GET JOIN_PLANNER after %s: %v %v", setting, v, err)
		}
		// The WHERE-bridged cartesian answers identically with hash joins
		// on (HashJoin op) and off (rescan fallback).
		rep, err := c.Query("g", `MATCH (a:L)-[:E1]->(b:M), (c:F)-[:E2]->(d:T) WHERE b.k = c.k RETURN count(*)`)
		if err != nil {
			t.Fatal(err)
		}
		if rows := rep[1].([]any); len(rows) != 1 || rows[0].([]any)[0].(int64) != 1 {
			t.Fatalf("JOIN_PLANNER=%s rows: %v", setting, rep[1])
		}
	}
	if _, err := c.Do("GRAPH.CONFIG", "SET", "JOIN_PLANNER", "maybe"); err == nil {
		t.Fatal("SET JOIN_PLANNER maybe must fail")
	}
}

func TestFlushAllAndInfo(t *testing.T) {
	_, c := startServer(t)
	c.Do("SET", "a", "1")
	c.Query("g", `CREATE (:N)`)
	if v, _ := c.Do("FLUSHALL"); v.(resp.SimpleString) != "OK" {
		t.Fatal("flushall")
	}
	if v, _ := c.Do("DBSIZE"); v.(int64) != 0 {
		t.Fatalf("dbsize after flush: %v", v)
	}
	v, err := c.Do("INFO")
	if err != nil || !strings.Contains(v.(string), "threadpool_size:4") {
		t.Fatalf("info: %v %v", v, err)
	}
}

func TestQueryTimeout(t *testing.T) {
	s := New(Options{Addr: "127.0.0.1:0", ThreadCount: 2, QueryTimeout: time.Nanosecond})
	if err := s.Start(); err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	c, err := client.Dial(s.Addr())
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	// Build enough data that the query cannot finish in a nanosecond.
	g := s.Graph("g")
	g.Lock()
	for i := 0; i < 2000; i++ {
		g.CreateNode([]string{"N"}, nil)
	}
	g.Sync()
	g.Unlock()
	if _, err := c.Do("GRAPH.QUERY", "g", "MATCH (n:N) RETURN count(n)"); err == nil ||
		!strings.Contains(err.Error(), "timed out") {
		t.Fatalf("err = %v", err)
	}
}

func TestGraphConfigTraverseBatch(t *testing.T) {
	_, c := startServer(t)
	// Defaults to the engine's batch size.
	v, err := c.Do("GRAPH.CONFIG", "GET", "TRAVERSE_BATCH")
	if err != nil {
		t.Fatal(err)
	}
	pair := v.([]any)
	if pair[0].(string) != "TRAVERSE_BATCH" || pair[1].(int64) != int64(core.DefaultTraverseBatch) {
		t.Fatalf("default TRAVERSE_BATCH: %v", v)
	}
	// Queries keep working at every accepted setting, including the
	// tuple-at-a-time degenerate batch.
	if _, err := c.Query("g", `CREATE (:P {x: 1})-[:L]->(:P {x: 2})`); err != nil {
		t.Fatal(err)
	}
	for _, bs := range []string{"1", "3", "128"} {
		if v, err := c.Do("GRAPH.CONFIG", "SET", "TRAVERSE_BATCH", bs); err != nil || v.(resp.SimpleString) != "OK" {
			t.Fatalf("SET TRAVERSE_BATCH %s: %v %v", bs, v, err)
		}
		v, err := c.Do("GRAPH.CONFIG", "GET", "TRAVERSE_BATCH")
		if err != nil {
			t.Fatal(err)
		}
		if got := v.([]any)[1].(int64); fmt.Sprint(got) != bs {
			t.Fatalf("GET after SET %s: %d", bs, got)
		}
		rep, err := c.Query("g", `MATCH (a:P)-[:L]->(b:P) RETURN count(b)`)
		if err != nil {
			t.Fatal(err)
		}
		if rows := rep[1].([]any); len(rows) != 1 || rows[0].([]any)[0].(int64) != 1 {
			t.Fatalf("batch=%s rows: %v", bs, rep[1])
		}
	}
	// Validation: zero, negative, junk and over-cap values are rejected.
	for _, bad := range []string{"0", "-4", "many", "1000000"} {
		if _, err := c.Do("GRAPH.CONFIG", "SET", "TRAVERSE_BATCH", bad); err == nil {
			t.Fatalf("SET TRAVERSE_BATCH %s must fail", bad)
		}
	}
}

// TestParallelSegmentPanicIsErrorReply makes every pipeline segment of a
// MAX_QUERY_THREADS 4 query panic inside its morsel (an edge property holds
// an edge value with no entity, which the property access dereferences).
// Morsels on pool workers used to crash the process; now the query gets an
// error reply and the connection stays usable.
func TestParallelSegmentPanicIsErrorReply(t *testing.T) {
	s, c := startServer(t)
	if _, err := c.Do("GRAPH.CONFIG", "SET", "MAX_QUERY_THREADS", "4"); err != nil {
		t.Fatal(err)
	}
	if _, err := c.Query("g", `UNWIND range(1, 256) AS i CREATE (:N {i: i})-[:R {p: i}]->(:N)`); err != nil {
		t.Fatal(err)
	}
	g := s.Graph("g")
	g.Lock()
	aid, _ := g.Schema.AttrID("p")
	g.ForEachEdge(func(e *graph.Edge) bool {
		e.Props[aid] = value.Value{Kind: value.KindEdge}
		return true
	})
	g.Unlock()
	query := `MATCH (a:N)-[e:R]->(b) RETURN e.p.x`
	lines, err := c.Do("GRAPH.EXPLAIN", "g", query)
	if err != nil || !strings.Contains(fmt.Sprint(lines), "Parallel") {
		t.Fatalf("the query must run as parallel segments: %v %v", lines, err)
	}
	for i := 0; i < 3; i++ {
		if _, err := c.Query("g", query); err == nil || !strings.Contains(err.Error(), "panic") {
			t.Fatalf("run %d: want a panic error reply, got %v", i, err)
		}
	}
	rep, err := c.Query("g", `MATCH (a:N)-[:R]->(b) RETURN count(b)`)
	if err != nil {
		t.Fatalf("after the panics: %v", err)
	}
	if got := scalarRow(t, rep); got != 256 {
		t.Fatalf("after the panics: count = %d, want 256", got)
	}
}

// TestCreateThenMatchNewLabelOverRESP: a MATCH after a CREATE in the same
// query may name the label the CREATE introduces; the node is created and
// counted.
func TestCreateThenMatchNewLabelOverRESP(t *testing.T) {
	_, c := startServer(t)
	v, err := c.Query("g", `CREATE (:N) WITH 1 AS x MATCH (n:N) RETURN count(n)`)
	if err != nil {
		t.Fatal(err)
	}
	if got := scalarRow(t, v); got != 1 {
		t.Fatalf("count = %d, want 1", got)
	}
	if stats := fmt.Sprint(v[2]); !strings.Contains(stats, "Nodes created: 1") {
		t.Fatalf("stats %s lack \"Nodes created: 1\"", stats)
	}
}
