package core

import (
	"fmt"
	"strings"
	"testing"

	"redisgraph/internal/baseline"
	"redisgraph/internal/gen"
	"redisgraph/internal/graph"
	"redisgraph/internal/value"
)

// varLenCountGraph is a uniform random graph of :N nodes, every third also
// :M and every 24th also :S, with A and B edges. pending leaves deletes and inserts of A edges
// buffered in the delta matrices instead of folded.
func varLenCountGraph(t *testing.T, pending bool) *graph.Graph {
	t.Helper()
	e := gen.Uniform(240, 600, 91)
	g := graph.New("varlen-count")
	g.Lock()
	for v := 0; v < e.NumNodes; v++ {
		labels := []string{"N"}
		if v%3 == 0 {
			labels = append(labels, "M")
		}
		if v%24 == 0 {
			labels = append(labels, "S")
		}
		g.CreateNode(labels, map[string]value.Value{"uid": value.NewInt(int64(v))})
	}
	for i := range e.Src {
		typ := []string{"A", "B"}[i%2]
		if _, err := g.CreateEdge(typ, uint64(e.Src[i]), uint64(e.Dst[i]),
			map[string]value.Value{"w": value.NewInt(int64(i))}); err != nil {
			t.Fatal(err)
		}
	}
	g.CreateIndex("N", "uid")
	g.Sync()
	g.Unlock()
	if !pending {
		return g
	}
	g.SetSyncThreshold(1 << 30)
	for _, w := range []string{
		`MATCH (:N)-[e:A]->() WHERE e.w % 7 = 0 DELETE e`,
		`MATCH (a:N {uid: 5}), (b:N {uid: 200}) CREATE (a)-[:A]->(b)`,
		`MATCH (a:N {uid: 200}), (b:N {uid: 17}) CREATE (a)-[:A]->(b)`,
	} {
		if _, err := Query(g, w, nil, Config{}); err != nil {
			t.Fatalf("%s: %v", w, err)
		}
	}
	if g.PendingDeltas() == 0 {
		t.Fatal("expected pending deltas with a huge threshold")
	}
	return g
}

// adjOf builds the single-core baseline over the live edges of one type.
func adjOf(g *graph.Graph, typ string) *baseline.AdjList {
	tid, _ := g.Schema.RelTypeID(typ)
	var src, dst []int
	g.ForEachEdge(func(e *graph.Edge) bool {
		if e.Type == tid {
			src = append(src, int(e.Src))
			dst = append(dst, int(e.Dst))
		}
		return true
	})
	return baseline.NewAdjList(g.Dim(), src, dst)
}

// TestVarLenCountPushdownDifferential checks that the var-length count
// pushdown returns exactly the row count of the materialising plan and, for
// unlabelled destinations, the depth-layer counts of an independent BFS
// baseline — across hop ranges, destination labels with pushdown on and
// off, pending deltas, batch sizes, thread counts, kernel directions and a
// plan-cache hit.
func TestVarLenCountPushdownDifferential(t *testing.T) {
	type hopRange struct{ lo, hi int } // hi -1 = unbounded
	var ranges []hopRange
	for _, lo := range []int{0, 1, 2} {
		for _, hi := range []int{1, 3, -1} {
			if hi >= 0 && hi < lo {
				continue
			}
			ranges = append(ranges, hopRange{lo, hi})
		}
	}
	const src = 3 // an :M node, so the single-source pattern has a seed
	for _, pending := range []bool{false, true} {
		g := varLenCountGraph(t, pending)
		adj := adjOf(g, "A")
		// khop counts nodes at depth 1..k from src, the seed excluded.
		khop := func(k int) int {
			if k < 0 {
				k = g.Dim()
			}
			return adj.KHopCount(src, k)
		}
		for _, r := range ranges {
			hi := ""
			if r.hi >= 0 {
				hi = fmt.Sprint(r.hi)
			}
			hops := fmt.Sprintf("*%d..%s", r.lo, hi)
			for _, dst := range []string{"", ":M", ":M:N"} {
				patterns := []string{
					fmt.Sprintf("MATCH (a:N {uid: %d})-[:A%s]->(b%s)", src, hops, dst),
					fmt.Sprintf("MATCH (a:S)-[:A%s]->(b%s)", hops, dst),
				}
				for pi, pat := range patterns {
					want := len(q(t, g, pat+" RETURN b").Rows)
					if pi == 0 && dst == "" {
						oracle := khop(r.hi)
						if r.lo == 0 {
							oracle++
						} else {
							oracle -= khop(r.lo - 1)
						}
						if want != oracle {
							t.Fatalf("pending=%v %s: %d rows, baseline BFS says %d", pending, pat, want, oracle)
						}
					}
					for _, noPush := range []bool{false, true} {
						for _, batch := range []int{1, 64} {
							for _, threads := range []int{1, 4} {
								for _, kernel := range []string{"auto", "push", "pull"} {
									// A forced pull hop scans every row of the
									// padded dimension; the multi-source
									// pattern runs it in one configuration.
									if kernel == "pull" && pi == 1 && (batch != 64 || threads != 4) {
										continue
									}
									cfg := Config{NoPushdown: noPush, TraverseBatch: batch,
										OpThreads: threads, TraverseKernel: kernel}
									name := fmt.Sprintf("pending=%v %s nopush=%v batch=%d threads=%d kernel=%s",
										pending, pat, noPush, batch, threads, kernel)
									// NoPushdown keeps labels after the first as a
									// residual filter, which blocks the pushdown.
									pushed := pi == 0 && !(noPush && dst == ":M:N")
									checkVarLenCount(t, g, pat, want, cfg, name, pushed)
								}
							}
						}
					}
				}
			}
		}
	}
}

// checkVarLenCount runs count(b) and count(*) over pat and RETURN b through
// the materialising plan, under cfg. pushed demands that the counts plan
// the pushdown; the cost planner may instead enter at b and traverse back.
func checkVarLenCount(t *testing.T, g *graph.Graph, pat string, want int, cfg Config, name string, pushed bool) {
	t.Helper()
	for _, ret := range []string{" RETURN count(b)", " RETURN count(*)"} {
		lines, err := Explain(g, pat+ret, cfg)
		if err != nil {
			t.Fatal(err)
		}
		if joined := strings.Join(lines, "\n"); pushed && !strings.Contains(joined, "VarLenTraverseCount") &&
			!strings.Contains(joined, "ParallelTraverseCount") {
			t.Fatalf("%s%s: count not pushed down:\n%s", name, ret, joined)
		}
		rs, err := Query(g, pat+ret, nil, cfg)
		if err != nil {
			t.Fatalf("%s%s: %v", name, ret, err)
		}
		if got := int(rs.Rows[0][0].Int()); got != want {
			t.Fatalf("%s%s = %d, want %d", name, ret, got, want)
		}
	}
	rs, err := Query(g, pat+" RETURN b", nil, cfg)
	if err != nil {
		t.Fatalf("%s RETURN b: %v", name, err)
	}
	if len(rs.Rows) != want {
		t.Fatalf("%s RETURN b: %d rows, want %d", name, len(rs.Rows), want)
	}
}

// TestVarLenCountPushdownCached runs the pushed-down count through the plan
// cache: the second run must be a hit (the operation clones) and agree.
func TestVarLenCountPushdownCached(t *testing.T) {
	g := varLenCountGraph(t, true)
	for _, threads := range []int{1, 4} {
		pc := NewPlanCache(16)
		cfg := Config{OpThreads: threads, PlanCache: pc, NoFairScheduler: true}
		query := `MATCH (a:N {uid: $s})-[:A*1..3]->(b:M) RETURN count(b)`
		for _, s := range []int64{3, 9, 3} {
			want := len(q(t, g, fmt.Sprintf(`MATCH (a:N {uid: %d})-[:A*1..3]->(b:M) RETURN b`, s)).Rows)
			rs, err := Query(g, query, map[string]value.Value{"s": value.NewInt(s)}, cfg)
			if err != nil {
				t.Fatal(err)
			}
			if got := int(rs.Rows[0][0].Int()); got != want {
				t.Fatalf("threads=%d s=%d: count = %d, want %d", threads, s, got, want)
			}
		}
		if c := pc.Counters(); c.Hits == 0 {
			t.Fatalf("threads=%d: no plan-cache hit: %+v", threads, c)
		}
	}
}

// TestVarLenCountProfileShowsTraversal checks that the pushed-down count
// keeps the traversal's EXPLAIN/PROFILE details, serial and parallel.
func TestVarLenCountProfileShowsTraversal(t *testing.T) {
	g := varLenCountGraph(t, false)
	query := `MATCH (a:M)-[:A*1..3]->(b:M) RETURN count(b)`
	for _, threads := range []int{1, 4} {
		lines, err := Profile(g, query, nil, Config{OpThreads: threads, TraverseKernel: "pull", NoFairScheduler: true})
		if err != nil {
			t.Fatal(err)
		}
		top := lines[0]
		for _, l := range lines {
			if strings.Contains(l, "TraverseCount") {
				top = l
				break
			}
		}
		for _, want := range []string{"TraverseCount", "A [1..3]", "dst mask: :M", "kernel: pull"} {
			if !strings.Contains(top, want) {
				t.Fatalf("threads=%d: count line %q lacks %q:\n%s", threads, top, want, strings.Join(lines, "\n"))
			}
		}
	}
}
