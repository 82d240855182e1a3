package core

import (
	"fmt"
	"strings"

	"redisgraph/internal/cypher"
	"redisgraph/internal/graph"
	"redisgraph/internal/grb"
	"redisgraph/internal/value"
)

// defaultTraverseBatch is the number of records fused into one frontier
// matrix by the batched traversal operations — and, since the batch-at-a-
// time refactor, the pipeline-wide batch size every operation aims for.
// Config.TraverseBatch overrides it per query.
const defaultTraverseBatch = 64

// dstMask is a pushed-down destination predicate: a property comparison
// whose value is record-free, compiled into a GraphBLAS column mask and
// applied to the result frontier right after the MxM/VxM evaluation — before
// a single output record exists. An equality backed by an attribute index on
// (label, attr) becomes the index seed set; every other comparison probes
// the property store per destination column.
type dstMask struct {
	labels []string // candidate index labels of the destination node
	attr   string
	op     string // = <> < <= > >= (empty means =)
	val    evalFn // record-free (literal or parameter)
	desc   string
}

// compile resolves the mask against the live graph under the query's lock.
func (m *dstMask) compile(ctx *execCtx) (grb.ColMask, error) {
	want, err := m.val(ctx, nil)
	if err != nil {
		return nil, err
	}
	if m.op == "" || m.op == "=" {
		if aid, ok := ctx.g.Schema.AttrID(m.attr); ok {
			for _, label := range m.labels {
				lid, ok := ctx.g.Schema.LabelID(label)
				if !ok {
					continue
				}
				if ix, ok := ctx.g.Schema.Index(lid, aid); ok {
					ids := ix.Lookup(want)
					cols := make([]grb.Index, len(ids))
					for i, id := range ids {
						cols[i] = grb.Index(id)
					}
					return grb.IndexSetMask(cols), nil
				}
			}
		}
	}
	// Columnar probe: skip the node lookup and property-map access entirely
	// and compare against the typed column cell. compileColPred mirrors
	// compareValues bit for bit and declines (falling through to the map
	// closure) whenever the column cannot answer exactly. Like every
	// columnar read this only runs in read-only plans: the compiled probe
	// bakes in schema and interner lookups that a same-query write could
	// invalidate between batches.
	if ctx.colStore {
		if pred, ok := compileColPred(ctx, scanPropCmp{attr: m.attr, op: m.op, want: want}); ok {
			return func(j grb.Index) bool {
				return pred.probe(uint64(j))
			}, nil
		}
	}
	attr, op := m.attr, m.op
	return func(j grb.Index) bool {
		n, ok := ctx.g.GetNode(uint64(j))
		return ok && cmpKeep(op, ctx.g.NodeProperty(n, attr), want)
	}, nil
}

// compileDstMasks combines every pushed destination mask conjunctively.
func compileDstMasks(ctx *execCtx, masks []dstMask) (grb.ColMask, error) {
	if len(masks) == 0 {
		return nil, nil
	}
	out := make([]grb.ColMask, len(masks))
	for i := range masks {
		m, err := masks[i].compile(ctx)
		if err != nil {
			return nil, err
		}
		out[i] = m
	}
	return grb.AndMasks(out), nil
}

// dstMaskFn returns the operation's combined destination mask, memoised per
// write epoch: the masks are record-free, so one compilation (one index
// lookup) covers every batch until a mutation burst changes the graph.
func (o *condTraverseOp) dstMaskFn(ctx *execCtx) (grb.ColMask, error) {
	if len(o.masks) == 0 {
		return nil, nil
	}
	ep := ctx.g.Epoch()
	if o.maskOK && o.maskEpoch == ep {
		return o.maskFn, nil
	}
	m, err := compileDstMasks(ctx, o.masks)
	if err != nil {
		return nil, err
	}
	o.maskFn, o.maskEpoch, o.maskOK = m, ep, true
	return m, nil
}

// describeThreads renders an operation's kernel parallelism degree for
// EXPLAIN/PROFILE; the default single-threaded case prints nothing.
func describeThreads(n int) string {
	if n <= 1 {
		return ""
	}
	return fmt.Sprintf(" | threads: %d", n)
}

func describeMasks(masks []dstMask) string {
	if len(masks) == 0 {
		return ""
	}
	parts := make([]string, len(masks))
	for i := range masks {
		parts[i] = masks[i].desc
	}
	return " | mask: " + strings.Join(parts, ", ")
}

// condTraverseOp expands records one hop along an algebraic expression.
// It is batch-oriented: up to `batch` input records are pulled from the
// child, fused into an n×dim frontier matrix F (row r = one-hot source of
// record r), the whole algebraic chain is evaluated with a single masked
// MxM per operand, pushed-down destination predicates are applied to the
// result frontier as column masks, and the rows are scattered into output
// records — emitted downstream as one whole batch, never as single-record
// pulls. This is the frontier-fusion design from the paper: one sparse
// matrix–matrix multiply instead of one kernel call per record.
type condTraverseOp struct {
	child    operation
	srcSlot  int
	dstSlot  int
	edgeSlot int // -1 when no edge variable
	width    int
	batch    int // frontier rows per evaluation; >= 1

	ae        *algebraicExpr
	masks     []dstMask
	typeIDs   []int // for edge lookup; nil = any type
	direction cypher.Direction
	optional  bool
	kthreads  int // kernel parallelism degree, for EXPLAIN/PROFILE

	in       batchPuller
	queue    []record
	done     bool
	arena    recordArena
	dstBuf   []grb.Index
	batchBuf []record
	srcBuf   []grb.Index

	maskFn    grb.ColMask
	maskEpoch uint64
	maskOK    bool

	ks kernelStats
}

func (o *condTraverseOp) nextBatch(ctx *execCtx) (recordBatch, error) {
	for {
		if len(o.queue) > 0 {
			out := recordBatch(o.queue)
			o.queue = nil
			return out, nil
		}
		if o.done {
			return nil, nil
		}
		if err := o.fill(ctx); err != nil {
			return nil, err
		}
	}
}

// gather pulls up to bs input records, recording each record's frontier
// column (-1 marks a null OPTIONAL MATCH source, which keeps an empty row).
func (o *condTraverseOp) gather(ctx *execCtx, bs int) ([]record, []grb.Index, error) {
	batch := o.batchBuf[:0]
	srcs := o.srcBuf[:0]
	for len(batch) < bs {
		in, err := o.in.pull(ctx, o.child)
		if err != nil {
			return nil, nil, err
		}
		if in == nil {
			o.done = true
			break
		}
		src := in[o.srcSlot]
		if src.Kind != value.KindNode {
			if src.IsNull() && o.optional {
				batch = append(batch, in)
				srcs = append(srcs, -1)
				continue
			}
			return nil, nil, fmt.Errorf("traverse: %s is not a node", src.Kind)
		}
		batch = append(batch, in)
		srcs = append(srcs, grb.Index(src.ID))
	}
	o.batchBuf, o.srcBuf = batch, srcs
	return batch, srcs, nil
}

// fill pulls one batch of input records, evaluates the fused frontier and
// queues every resulting output record in child order. Batch size 1 keeps
// the historic per-record vector path (the benchmark baseline).
func (o *condTraverseOp) fill(ctx *execCtx) error {
	bs := ctx.traverseBatch(o.batch)
	o.batch = bs // report the effective size in PROFILE output
	if bs == 1 {
		return o.fillVector(ctx)
	}
	batch, srcs, err := o.gather(ctx, bs)
	if err != nil {
		return err
	}
	if len(batch) == 0 {
		return nil
	}
	frontier := grb.NewMatrix(len(batch), ctx.g.Dim())
	if err := frontier.BuildFromRows(srcs); err != nil {
		return err
	}
	mask, err := o.dstMaskFn(ctx)
	if err != nil {
		return err
	}
	result, err := o.ae.evalMatrix(ctx, frontier, &o.ks, mask)
	if err != nil {
		return err
	}
	for r, in := range batch {
		emitted := o.scatterRow(ctx, in, srcs[r], result.RowIterate(r))
		if !emitted && o.optional {
			o.queue = append(o.queue, o.arena.extended(in, o.width))
		}
	}
	return nil
}

// fillVector is the per-record path: a one-hot frontier vector and one VxM
// per operand, exactly the pre-batching execution strategy.
func (o *condTraverseOp) fillVector(ctx *execCtx) error {
	in, err := o.in.pull(ctx, o.child)
	if err != nil {
		return err
	}
	if in == nil {
		o.done = true
		return nil
	}
	src := in[o.srcSlot]
	if src.Kind != value.KindNode {
		if src.IsNull() && o.optional {
			o.queue = append(o.queue, o.arena.extended(in, o.width))
			return nil
		}
		return fmt.Errorf("traverse: %s is not a node", src.Kind)
	}
	frontier := grb.NewVector(ctx.g.Dim())
	if err := frontier.SetElement(int(src.ID), 1); err != nil {
		return err
	}
	mask, err := o.dstMaskFn(ctx)
	if err != nil {
		return err
	}
	w, err := o.ae.eval(ctx, frontier, &o.ks, mask)
	if err != nil {
		return err
	}
	o.dstBuf = o.dstBuf[:0]
	w.Iterate(func(j grb.Index, _ float64) bool {
		o.dstBuf = append(o.dstBuf, j)
		return true
	})
	emitted := o.scatterRow(ctx, in, grb.Index(src.ID), o.dstBuf)
	if !emitted && o.optional {
		o.queue = append(o.queue, o.arena.extended(in, o.width))
	}
	return nil
}

// scatterRow turns one result-matrix row back into output records,
// reporting whether anything was queued.
func (o *condTraverseOp) scatterRow(ctx *execCtx, in record, src grb.Index, dsts []grb.Index) bool {
	emitted := false
	for _, j := range dsts {
		dst, ok := ctx.g.GetNode(uint64(j))
		if !ok {
			continue
		}
		if o.edgeSlot < 0 {
			out := o.arena.extended(in, o.width)
			out[o.dstSlot] = value.NewNode(uint64(j), dst)
			o.queue = append(o.queue, out)
			emitted = true
			continue
		}
		// One record per connecting edge.
		for _, eid := range o.connectingEdges(ctx, uint64(src), uint64(j)) {
			e, ok := ctx.g.GetEdge(eid)
			if !ok {
				continue
			}
			out := o.arena.extended(in, o.width)
			out[o.dstSlot] = value.NewNode(uint64(j), dst)
			out[o.edgeSlot] = value.NewEdge(eid, e)
			o.queue = append(o.queue, out)
			emitted = true
		}
	}
	return emitted
}

func (o *condTraverseOp) connectingEdges(ctx *execCtx, src, dst uint64) []uint64 {
	var out []uint64
	collect := func(a, b uint64) {
		if o.typeIDs == nil {
			out = append(out, ctx.g.EdgesBetween(-1, a, b)...)
			return
		}
		for _, t := range o.typeIDs {
			out = append(out, ctx.g.EdgesBetween(t, a, b)...)
		}
	}
	switch o.direction {
	case cypher.DirOut:
		collect(src, dst)
	case cypher.DirIn:
		collect(dst, src)
	default:
		collect(src, dst)
		if src != dst {
			collect(dst, src)
		}
	}
	return out
}

func (o *condTraverseOp) name() string {
	if o.optional {
		return "OptionalTraverse"
	}
	return "ConditionalTraverse"
}
func (o *condTraverseOp) args() string {
	return fmt.Sprintf("%s | batched(%d)%s%s%s", o.ae.String(), o.batch, describeThreads(o.kthreads), describeMasks(o.masks), o.ks.describe())
}
func (o *condTraverseOp) children() []operation        { return []operation{o.child} }
func (o *condTraverseOp) setChild(i int, op operation) { o.child = op }

// expandIntoOp closes a cycle: both endpoints are bound and the operation
// checks connectivity (emitting per edge when an edge variable is bound).
// Like condTraverseOp it batches records into a frontier matrix, then probes
// entry (r, dst_r) of the result for each record r.
type expandIntoOp struct {
	child    operation
	srcSlot  int
	dstSlot  int
	edgeSlot int
	width    int
	batch    int

	ae        *algebraicExpr
	typeIDs   []int
	direction cypher.Direction
	kthreads  int // kernel parallelism degree, for EXPLAIN/PROFILE

	in       batchPuller
	queue    []record
	done     bool
	arena    recordArena
	batchBuf []record
	srcBuf   []grb.Index

	ks kernelStats
}

func (o *expandIntoOp) nextBatch(ctx *execCtx) (recordBatch, error) {
	for {
		if len(o.queue) > 0 {
			out := recordBatch(o.queue)
			o.queue = nil
			return out, nil
		}
		if o.done {
			return nil, nil
		}
		if err := o.fill(ctx); err != nil {
			return nil, err
		}
	}
}

func (o *expandIntoOp) fill(ctx *execCtx) error {
	bs := ctx.traverseBatch(o.batch)
	o.batch = bs // report the effective size in PROFILE output
	if bs == 1 {
		return o.fillVector(ctx)
	}
	batch := o.batchBuf[:0]
	srcs := o.srcBuf[:0]
	for len(batch) < bs {
		in, err := o.in.pull(ctx, o.child)
		if err != nil {
			return err
		}
		if in == nil {
			o.done = true
			break
		}
		if in[o.srcSlot].Kind != value.KindNode || in[o.dstSlot].Kind != value.KindNode {
			continue
		}
		batch = append(batch, in)
		srcs = append(srcs, grb.Index(in[o.srcSlot].ID))
	}
	o.batchBuf, o.srcBuf = batch, srcs
	if len(batch) == 0 {
		return nil
	}
	if m, ok := o.pullProbe(ctx); ok {
		// Pull: one point probe of the relation matrix per record — the
		// canonical pull case, a tiny candidate set (each record's bound
		// destination) against whole frontier rows the push path would build.
		o.ks.note(true)
		for _, in := range batch {
			if _, err := m.ExtractElement(int(in[o.srcSlot].ID), int(in[o.dstSlot].ID)); err == nil {
				o.emitConnected(ctx, in)
			}
		}
		return nil
	}
	frontier := grb.NewMatrix(len(batch), ctx.g.Dim())
	if err := frontier.BuildFromRows(srcs); err != nil {
		return err
	}
	result, err := o.ae.evalMatrix(ctx, frontier, &o.ks, nil)
	if err != nil {
		return err
	}
	for r, in := range batch {
		if _, err := result.ExtractElement(r, int(in[o.dstSlot].ID)); err != nil {
			continue // not connected
		}
		o.emitConnected(ctx, in)
	}
	return nil
}

// pullProbe reports whether this expand-into should bypass frontier
// evaluation and point-probe the relation matrix per record. Eligible when
// the algebraic expression is a single relation operand (expand-into never
// folds label diagonals: both endpoints are already bound). The probe is an
// O(log degree) binary search; the push path builds each record's whole
// ~mean-degree result row first, so auto mode probes whenever the mean
// degree exceeds the probe cost.
func (o *expandIntoOp) pullProbe(ctx *execCtx) (*grb.DeltaMatrix, bool) {
	if len(o.ae.operands) != 1 || o.ae.operands[0].diag {
		return nil, false
	}
	if ctx.kernel == kernelPush {
		return nil, false
	}
	m := ctx.resolveOperand(&o.ae.operands[0])
	if m == nil {
		return nil, false
	}
	if ctx.kernel == kernelPull {
		return m, true
	}
	dim := ctx.g.Dim()
	if dim == 0 || float64(m.NVals())/float64(dim) <= expandProbeCost {
		return nil, false
	}
	return m, true
}

// fillVector is the per-record path: one-hot frontier vector, VxM chain,
// then a point probe of the destination.
func (o *expandIntoOp) fillVector(ctx *execCtx) error {
	in, err := o.in.pull(ctx, o.child)
	if err != nil {
		return err
	}
	if in == nil {
		o.done = true
		return nil
	}
	src, dst := in[o.srcSlot], in[o.dstSlot]
	if src.Kind != value.KindNode || dst.Kind != value.KindNode {
		return nil
	}
	if m, ok := o.pullProbe(ctx); ok {
		o.ks.note(true)
		if _, err := m.ExtractElement(int(src.ID), int(dst.ID)); err == nil {
			o.emitConnected(ctx, in)
		}
		return nil
	}
	frontier := grb.NewVector(ctx.g.Dim())
	if err := frontier.SetElement(int(src.ID), 1); err != nil {
		return err
	}
	w, err := o.ae.eval(ctx, frontier, &o.ks, nil)
	if err != nil {
		return err
	}
	if _, err := w.ExtractElement(int(dst.ID)); err != nil {
		return nil // not connected
	}
	o.emitConnected(ctx, in)
	return nil
}

// emitConnected queues the output records for one connected (src, dst) pair.
func (o *expandIntoOp) emitConnected(ctx *execCtx, in record) {
	if o.edgeSlot < 0 {
		o.queue = append(o.queue, o.arena.extended(in, o.width))
		return
	}
	ct := condTraverseOp{typeIDs: o.typeIDs, direction: o.direction}
	for _, eid := range ct.connectingEdges(ctx, in[o.srcSlot].ID, in[o.dstSlot].ID) {
		e, ok := ctx.g.GetEdge(eid)
		if !ok {
			continue
		}
		out := o.arena.extended(in, o.width)
		out[o.edgeSlot] = value.NewEdge(eid, e)
		o.queue = append(o.queue, out)
	}
}

func (o *expandIntoOp) name() string { return "ExpandInto" }
func (o *expandIntoOp) args() string {
	return fmt.Sprintf("%s | batched(%d)%s%s", o.ae.String(), o.batch, describeThreads(o.kthreads), o.ks.describe())
}
func (o *expandIntoOp) children() []operation        { return []operation{o.child} }
func (o *expandIntoOp) setChild(i int, op operation) { o.child = op }

// traverseCountOp is aggregate pushdown for `RETURN count(dst)` directly
// above a non-optional traversal without an edge variable: the count equals
// the total cardinality of the result-frontier rows, so no output record is
// ever materialised — the paper's own k-hop counting strategy (a reduction
// over the frontier) generalised to record batches. Pushed destination
// masks still apply: they filter the frontier before the reduction.
type traverseCountOp struct {
	t    *condTraverseOp
	done bool
}

func (o *traverseCountOp) nextBatch(ctx *execCtx) (recordBatch, error) {
	if o.done {
		return nil, nil
	}
	o.done = true
	t := o.t
	bs := ctx.traverseBatch(t.batch)
	t.batch = bs // report the effective size in PROFILE output
	var total int64
	for !t.done {
		if ctx.expired() {
			return nil, fmt.Errorf("query timed out during traversal count")
		}
		if bs == 1 {
			n, err := o.countVector(ctx)
			if err != nil {
				return nil, err
			}
			total += n
			continue
		}
		batch, srcs, err := t.gather(ctx, bs)
		if err != nil {
			return nil, err
		}
		if len(batch) == 0 {
			continue
		}
		frontier := grb.NewMatrix(len(batch), ctx.g.Dim())
		if err := frontier.BuildFromRows(srcs); err != nil {
			return nil, err
		}
		mask, err := t.dstMaskFn(ctx)
		if err != nil {
			return nil, err
		}
		result, err := t.ae.evalMatrix(ctx, frontier, &t.ks, mask)
		if err != nil {
			return nil, err
		}
		for r := range batch {
			for _, j := range result.RowIterate(r) {
				if _, ok := ctx.g.GetNode(uint64(j)); ok {
					total++
				}
			}
		}
	}
	out := newRecord(1)
	out[0] = value.NewInt(total)
	return recordBatch{out}, nil
}

// countVector is the per-record (batch 1) counting path.
func (o *traverseCountOp) countVector(ctx *execCtx) (int64, error) {
	t := o.t
	in, err := t.in.pull(ctx, t.child)
	if err != nil {
		return 0, err
	}
	if in == nil {
		t.done = true
		return 0, nil
	}
	src := in[t.srcSlot]
	if src.Kind != value.KindNode {
		return 0, fmt.Errorf("traverse: %s is not a node", src.Kind)
	}
	frontier := grb.NewVector(ctx.g.Dim())
	if err := frontier.SetElement(int(src.ID), 1); err != nil {
		return 0, err
	}
	mask, err := t.dstMaskFn(ctx)
	if err != nil {
		return 0, err
	}
	w, err := t.ae.eval(ctx, frontier, &t.ks, mask)
	if err != nil {
		return 0, err
	}
	var n int64
	w.Iterate(func(j grb.Index, _ float64) bool {
		if _, ok := ctx.g.GetNode(uint64(j)); ok {
			n++
		}
		return true
	})
	return n, nil
}

func (o *traverseCountOp) name() string          { return "TraverseCount" }
func (o *traverseCountOp) args() string          { return o.describe(&o.t.ks) }
func (o *traverseCountOp) kernels() *kernelStats { return &o.t.ks }
func (o *traverseCountOp) describe(ks *kernelStats) string {
	return fmt.Sprintf("%s | batched(%d)%s%s%s", o.t.ae.String(), o.t.batch, describeThreads(o.t.kthreads), describeMasks(o.t.masks), ks.describe())
}
func (o *traverseCountOp) children() []operation        { return []operation{o.t.child} }
func (o *traverseCountOp) setChild(i int, op operation) { o.t.child = op }

// varLenTraverseOp performs a masked BFS between minHops and maxHops,
// emitting each newly reached node whose depth lies in range — the k-hop
// neighbourhood expansion at the heart of the paper's benchmark. Each
// input record's whole reachable set is queued and emitted as native
// batches.
//
// Destination-label predicates ((a)-[*1..3]->(b:Rare)) are applied inside
// the expansion loop: dstAE holds the label diagonals, and each in-range
// frontier is multiplied through them before emission — one algebraic mask
// per level instead of a per-node label probe per reached vertex. The BFS
// itself keeps expanding the unfiltered frontier, since intermediate path
// nodes need not carry the destination label. dstLabel is the pre-pushdown
// baseline (NoPushdown): a per-node check of the first label only.
type varLenTraverseOp struct {
	child   operation
	srcSlot int
	dstSlot int
	width   int

	ae       *algebraicExpr
	minHops  int
	maxHops  int            // -1 = unbounded
	dstLabel int            // -1 = unfiltered (legacy per-node check)
	dstAE    *algebraicExpr // label-diagonal mask over emitted frontiers
	kthreads int            // kernel parallelism degree, for EXPLAIN/PROFILE

	in    batchPuller
	queue []record
	done  bool

	ks kernelStats
}

func (o *varLenTraverseOp) nextBatch(ctx *execCtx) (recordBatch, error) {
	for {
		if len(o.queue) > 0 {
			out := recordBatch(o.queue)
			o.queue = nil
			return out, nil
		}
		if o.done {
			return nil, nil
		}
		in, err := o.in.pull(ctx, o.child)
		if err != nil {
			return nil, err
		}
		if in == nil {
			o.done = true
			return nil, nil
		}
		src := in[o.srcSlot]
		if src.Kind != value.KindNode {
			return nil, fmt.Errorf("traverse: %s is not a node", src.Kind)
		}
		if err := o.expand(ctx, in, src.ID); err != nil {
			return nil, err
		}
	}
}

func (o *varLenTraverseOp) expand(ctx *execCtx, in record, srcID uint64) error {
	return o.bfs(ctx, srcID, func(f *grb.Vector) error {
		f, err := o.dstFrontier(ctx, f)
		if err != nil {
			return err
		}
		f.Iterate(func(j grb.Index, _ float64) bool {
			if n, ok := o.admit(ctx, j); ok {
				out := in.extended(o.width)
				out[o.dstSlot] = value.NewNode(uint64(j), n)
				o.queue = append(o.queue, out)
			}
			return true
		})
		return nil
	})
}

// bfs runs the masked BFS from srcID and hands every frontier whose depth
// lies in [minHops, maxHops] to visit, the seed itself first when minHops is
// 0. Each node reaches visit at most once per source: the complemented
// visited mask keeps every later frontier disjoint from it. The frontier is
// unfiltered; visit applies the destination checks (dstFrontier, admit).
func (o *varLenTraverseOp) bfs(ctx *execCtx, srcID uint64, visit func(*grb.Vector) error) error {
	dim := ctx.g.Dim()
	frontier := grb.NewVector(dim)
	if err := frontier.SetElement(int(srcID), 1); err != nil {
		return err
	}
	reached := frontier.Dup()
	maxH := o.maxHops
	if maxH < 0 {
		maxH = dim // cannot exceed the diameter
	}
	if o.minHops == 0 {
		if err := visit(frontier); err != nil {
			return err
		}
	}
	for hop := 1; hop <= maxH; hop++ {
		if ctx.expired() {
			return fmt.Errorf("query timed out during variable-length traversal")
		}
		next, err := o.ae.evalMasked(ctx, frontier, reached, &o.ks)
		if err != nil {
			return err
		}
		if next.NVals() == 0 {
			return nil
		}
		// In place: the visited set flips to bitmap form once dense, so
		// the next hop's complemented mask probes are O(1).
		if err := reached.UnionInPlace(next); err != nil {
			return err
		}
		if hop >= o.minHops {
			if err := visit(next); err != nil {
				return err
			}
		}
		frontier = next
	}
	return nil
}

// dstFrontier restricts one in-range frontier to the destination labels by
// multiplying it through the label diagonals, leaving the BFS frontier
// itself untouched.
func (o *varLenTraverseOp) dstFrontier(ctx *execCtx, f *grb.Vector) (*grb.Vector, error) {
	if o.dstAE == nil {
		return f, nil
	}
	return o.dstAE.eval(ctx, f, nil, nil)
}

// admit resolves one reached node, applying the NoPushdown per-node label
// check.
func (o *varLenTraverseOp) admit(ctx *execCtx, j grb.Index) (*graph.Node, bool) {
	n, ok := ctx.g.GetNode(uint64(j))
	if !ok || (o.dstLabel >= 0 && !nodeHasLabel(n, o.dstLabel)) {
		return nil, false
	}
	return n, true
}

func (o *varLenTraverseOp) name() string { return "VarLenTraverse" }
func (o *varLenTraverseOp) args() string { return o.describe(&o.ks) }

// describe renders the expansion for EXPLAIN/PROFILE with the given kernel
// decisions (a parallel count sums them over its segments).
func (o *varLenTraverseOp) describe(ks *kernelStats) string {
	hi := "∞"
	if o.maxHops >= 0 {
		hi = fmt.Sprint(o.maxHops)
	}
	s := fmt.Sprintf("%s [%d..%s]%s", o.ae.String(), o.minHops, hi, describeThreads(o.kthreads))
	if o.dstAE != nil {
		s += " | dst mask: " + o.dstAE.String()
	}
	return s + ks.describe()
}
func (o *varLenTraverseOp) children() []operation        { return []operation{o.child} }
func (o *varLenTraverseOp) setChild(i int, op operation) { o.child = op }

// varLenCountOp is the count pushdown for `RETURN count(dst)` directly
// above a variable-length traversal: every in-range BFS frontier is reduced
// to its cardinality as the expansion produces it, so no reached node ever
// becomes a record — the paper's k-hop count as a reduction over GraphBLAS
// frontiers. The destination checks are the traversal's own (label
// diagonals or the NoPushdown per-node check, then node existence), and
// each input record's count is summed into the single output row.
type varLenCountOp struct {
	t    *varLenTraverseOp
	done bool
}

func (o *varLenCountOp) nextBatch(ctx *execCtx) (recordBatch, error) {
	if o.done {
		return nil, nil
	}
	o.done = true
	t := o.t
	var total int64
	count := func(f *grb.Vector) error {
		f, err := t.dstFrontier(ctx, f)
		if err != nil {
			return err
		}
		f.Iterate(func(j grb.Index, _ float64) bool {
			if _, ok := t.admit(ctx, j); ok {
				total++
			}
			return true
		})
		return nil
	}
	for {
		in, err := t.in.pull(ctx, t.child)
		if err != nil {
			return nil, err
		}
		if in == nil {
			break
		}
		src := in[t.srcSlot]
		if src.Kind != value.KindNode {
			return nil, fmt.Errorf("traverse: %s is not a node", src.Kind)
		}
		if err := t.bfs(ctx, src.ID, count); err != nil {
			return nil, err
		}
	}
	out := newRecord(1)
	out[0] = value.NewInt(total)
	return recordBatch{out}, nil
}

func (o *varLenCountOp) name() string                    { return "VarLenTraverseCount" }
func (o *varLenCountOp) args() string                    { return o.t.args() }
func (o *varLenCountOp) kernels() *kernelStats           { return &o.t.ks }
func (o *varLenCountOp) describe(ks *kernelStats) string { return o.t.describe(ks) }
func (o *varLenCountOp) children() []operation           { return []operation{o.t.child} }
func (o *varLenCountOp) setChild(i int, op operation)    { o.t.child = op }

// labelDiagOperand returns the diagonal label matrix operand for filtering
// traversal destinations.
func labelDiagOperand(g *graph.Graph, label string) (algebraicOperand, bool) {
	lid, ok := g.Schema.LabelID(label)
	if !ok {
		return algebraicOperand{}, false
	}
	if g.LabelMatrix(lid) == nil {
		return algebraicOperand{}, false
	}
	return algebraicOperand{
		resolve: func(g *graph.Graph) *grb.DeltaMatrix { return g.LabelMatrix(lid) },
		label:   ":" + label,
		diag:    true, // a diagonal is its own transpose; direction is moot
	}, true
}
