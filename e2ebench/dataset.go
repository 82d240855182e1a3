package main

import (
	"fmt"
	"math/rand"
	"strconv"
	"strings"

	"redisgraph/internal/baseline"
	"redisgraph/internal/gen"
	"redisgraph/internal/grb"
)

const (
	graphName = "bench"
	// rmatScale gives 16,384 nodes and about 262k edges (edge factor 16).
	rmatScale = 14
	// ageRange bounds the generated :Node ages to [0, ageRange).
	ageRange = 100
	// khopPool is how many distinct seeds the k-hop requests draw from;
	// their answers are computed before the server starts.
	khopPool = 256
	// warmW is the number of :W edges created at set-up: one more batch
	// than the delta-sync threshold, so the :W matrix folds once before the
	// timed window and later creates and deletes pile up deltas again.
	warmW = grb.DefaultDeltaThreshold + 104
	// nodeBatch and edgeBatch are the bulk-load UNWIND list lengths.
	nodeBatch = 4096
	edgeBatch = 8192
)

type pair struct{ src, dst int }

// dataset is the generated graph plus the closed-form answers the oracle
// checks replies against.
type dataset struct {
	n        int
	src, dst []int // RMAT edge list as generated (parallel edges kept)
	age      []int
	outDeg   []int // distinct out-neighbours per node
	seeds    []int // k-hop request seeds
	khop     map[int]int
	aggCount []int // per age t: distinct (a,b) :F pairs with a.age = t
	aggMax   []int // per age t: max b.age over those pairs, -1 when none
	warm     []pair
}

func newDataset(genSeed, seed int64) *dataset {
	el := gen.RMAT(gen.Graph500Defaults(rmatScale, genSeed))
	rng := rand.New(rand.NewSource(seed))
	d := &dataset{n: el.NumNodes, src: el.Src, dst: el.Dst, age: make([]int, el.NumNodes)}
	for i := range d.age {
		d.age[i] = rng.Intn(ageRange)
	}

	d.outDeg = make([]int, d.n)
	d.aggCount = make([]int, ageRange)
	d.aggMax = make([]int, ageRange)
	for t := range d.aggMax {
		d.aggMax[t] = -1
	}
	seen := make(map[pair]bool, len(d.src))
	for i, s := range d.src {
		p := pair{s, d.dst[i]}
		if seen[p] {
			continue
		}
		seen[p] = true
		d.outDeg[s]++
		t := d.age[s]
		d.aggCount[t]++
		d.aggMax[t] = max(d.aggMax[t], d.age[p.dst])
	}

	adj := baseline.NewAdjList(d.n, d.src, d.dst)
	d.seeds = gen.Seeds(el, khopPool, seed)
	d.khop = make(map[int]int, len(d.seeds))
	for _, s := range d.seeds {
		if _, ok := d.khop[s]; !ok {
			d.khop[s] = adj.KHopCount(s, 3)
		}
	}

	wset := make(map[pair]bool, warmW)
	for len(d.warm) < warmW {
		p := pair{rng.Intn(d.n), rng.Intn(d.n)}
		if p.src != p.dst && !wset[p] {
			wset[p] = true
			d.warm = append(d.warm, p)
		}
	}
	return d
}

// loadStep is one bulk-load query and the statistics line its reply must
// carry.
type loadStep struct {
	query string
	want  string
	nodes int
	edges int
	rel   string // relationship type the step creates, if any
}

// loadSteps returns the set-up queries in order: nodes, the uid index,
// :F edges, then the :W warm-up edges.
func (d *dataset) loadSteps() []loadStep {
	var steps []loadStep
	for lo := 0; lo < d.n; lo += nodeBatch {
		hi := min(lo+nodeBatch, d.n)
		var b strings.Builder
		b.WriteString("UNWIND [")
		for v := lo; v < hi; v++ {
			if v > lo {
				b.WriteByte(',')
			}
			fmt.Fprintf(&b, "[%d,%d]", v, d.age[v])
		}
		b.WriteString("] AS x CREATE (:Node {uid: x[0], age: x[1]})")
		steps = append(steps, loadStep{query: b.String(), want: "Nodes created: " + strconv.Itoa(hi-lo), nodes: hi - lo})
	}
	steps = append(steps, loadStep{query: "CREATE INDEX ON :Node(uid)", want: "Indices created: 1"})
	for lo := 0; lo < len(d.src); lo += edgeBatch {
		hi := min(lo+edgeBatch, len(d.src))
		steps = append(steps, edgeStep("F", d.src[lo:hi], d.dst[lo:hi]))
	}
	ws, wd := make([]int, len(d.warm)), make([]int, len(d.warm))
	for i, p := range d.warm {
		ws[i], wd[i] = p.src, p.dst
	}
	return append(steps, edgeStep("W", ws, wd))
}

func edgeStep(rel string, src, dst []int) loadStep {
	var b strings.Builder
	b.WriteString("UNWIND [")
	for i, s := range src {
		if i > 0 {
			b.WriteByte(',')
		}
		fmt.Fprintf(&b, "[%d,%d]", s, dst[i])
	}
	fmt.Fprintf(&b, "] AS p MATCH (a:Node {uid: p[0]}), (b:Node {uid: p[1]}) CREATE (a)-[:%s]->(b)", rel)
	return loadStep{query: b.String(), want: "Relationships created: " + strconv.Itoa(len(src)), edges: len(src), rel: rel}
}
