// Pipeline-segment parallelism: eligible read-only plans are rewritten so
// the chain from the entry scan up to the lowest pipeline barrier executes
// as K independent segments over disjoint residue classes of the scanned
// node ids, joined by an exchange-style merge operation. The merge preserves
// global order only where the query demands it (ORDER BY merges per-segment
// sorted runs; TopNSort merges per-segment heaps); aggregation merges
// per-segment hash tables; plain projections gather buffered batches in
// segment order, so results stay deterministic across thread counts.
//
// Segments drive the shared morsel pool (pool.Parallel) with the
// coordinating goroutine participating; each segment executes under a
// single-threaded worker context (execCtx.forWorker) — the segments
// themselves are the query's parallelism, so nested kernel calls stay
// inline and cannot deadlock the pool. Writes never parallelise: the
// rewrite refuses non-read-only plans, keeping the writer discipline on
// the coordinating goroutine.
package core

import (
	"errors"
	"fmt"
	"sort"
	"sync/atomic"
	"time"

	"redisgraph/internal/pool"
	"redisgraph/internal/value"
)

// maxSegments caps pipeline fan-out: past ~16 segments the per-segment
// frontiers on one scan shrink below useful kernel batch sizes.
const maxSegments = 16

var errSegTimeout = errors.New("core: query timed out in parallel segment")

// segCloner is implemented by operations that can be duplicated into an
// independent pipeline segment. Clones share the immutable planned state
// (expressions, algebraic operands, slot layout) and drop all runtime
// state (buffers, memos, batch queues).
type segCloner interface {
	cloneSeg() operation
}

// parallelizePlan rewrites p in place to execute its lowest pipeline
// stretch as `threads` concurrent segments. It refuses — leaving the plan
// untouched — whenever correctness or progress guarantees would change:
// write plans, multi-child spines, non-partitionable entry points, and
// distinct aggregates (per-segment dedup sets cannot be merged).
// DISTINCT itself is a mergeable barrier: segments dedup locally and the
// coordinator re-dedups across segments. SKIP/LIMIT merge as a count-quota
// barrier: the quotas are global, so segments run the chain below the
// stretch — each over-producing at most skip+limit rows — and the
// coordinator clamps the segment-major concatenation. Index-scan entry
// points partition their seed list across segments by position.
func parallelizePlan(p *Plan, threads int) {
	if !p.ReadOnly || threads < 2 {
		return
	}
	if threads > maxSegments {
		threads = maxSegments
	}
	// Flatten the root's single-child spine: chain[0] is the root,
	// chain[len-1] the entry scan.
	var chain []operation
	for op := p.root; ; {
		chain = append(chain, op)
		kids := op.children()
		if len(kids) == 0 {
			break
		}
		if len(kids) != 1 {
			return
		}
		op = kids[0]
	}
	// The leaf must be a childless scan: full scans partition the id space
	// into residue classes, index scans stripe their seed list by position —
	// either way, no coordination between segments.
	switch s := chain[len(chain)-1].(type) {
	case *allNodeScanOp:
		if s.child != nil {
			return
		}
	case *labelScanOp:
		if s.child != nil {
			return
		}
	case *indexScanOp:
		if s.child != nil {
			return
		}
	default:
		return
	}
	// Find the lowest barrier above the leaf. Everything below it must be
	// cloneable; the barrier itself must be mergeable. The barrier check
	// runs first so an unmergeable barrier refuses instead of being cloned
	// as a passthrough (which would duplicate its blocking work).
	merge := -1
	for i := len(chain) - 2; i >= 0; i-- {
		if isSegBarrier(chain[i]) {
			if !segMergeable(chain[i]) {
				return
			}
			merge = i
			break
		}
		if _, ok := chain[i].(segCloner); !ok {
			return
		}
	}
	// A SKIP/LIMIT stretch is a count-quota barrier. The quotas are global —
	// a segment cannot skip locally — so the quota operations themselves stay
	// out of the segment chains and the merge applies the global clamp. top
	// marks the highest operation the merge replaces: the LIMIT sitting
	// directly above a SKIP when both are present (plan construction always
	// stacks them adjacently in that order), else the single quota op.
	top := merge
	var skipQuota, limitQuota evalFn
	if merge >= 0 {
		switch o := chain[merge].(type) {
		case *skipOp:
			skipQuota = o.n
			if merge > 0 {
				if l, ok := chain[merge-1].(*limitOp); ok {
					limitQuota = l.n
					top = merge - 1
				}
			}
		case *limitOp:
			limitQuota = o.n
		}
	}
	stop := merge
	if stop < 0 {
		stop = 0
	}
	if skipQuota != nil || limitQuota != nil {
		stop = merge + 1 // segments run the chain below the quota stack
	} else if _, ok := chain[stop].(segCloner); !ok {
		return
	}
	if top > 0 {
		if _, ok := chain[top-1].(childSetter); !ok {
			return
		}
	}
	// Assemble the K segment chains: clone chain[stop..leaf] bottom-up,
	// partitioning the leaf scan. Segment 0's clones inherit the original
	// cardinality estimates so EXPLAIN stays annotated.
	segs := make([]operation, threads)
	for k := 0; k < threads; k++ {
		var cur operation
		for i := len(chain) - 1; i >= stop; i-- {
			c := chain[i].(segCloner).cloneSeg()
			if i == len(chain)-1 {
				setScanPartition(c, k, threads)
			} else {
				c.(childSetter).setChild(0, cur)
			}
			if k == 0 && p.est != nil {
				if e, ok := p.est[chain[i]]; ok {
					p.est[c] = e
				}
			}
			cur = c
		}
		segs[k] = cur
	}
	var mop operation
	switch {
	case merge < 0:
		mop = &parallelGatherOp{parallelSeg: parallelSeg{segs: segs}}
	case skipQuota != nil || limitQuota != nil:
		mop = &parallelSkipLimitOp{parallelSeg: parallelSeg{segs: segs}, skip: skipQuota, limit: limitQuota}
	default:
		switch orig := chain[merge].(type) {
		case *aggregateOp:
			mop = &parallelAggOp{parallelSeg: parallelSeg{segs: segs}, items: orig.items, visible: orig.visible}
		case *sortOp:
			mop = &parallelSortOp{parallelSeg: parallelSeg{segs: segs}, tmpl: orig}
		case *topNSortOp:
			mop = &parallelTopNOp{parallelSeg: parallelSeg{segs: segs}, tmpl: orig}
		case *traverseCountOp, *varLenCountOp:
			mop = &parallelCountOp{parallelSeg: parallelSeg{segs: segs}}
		case *distinctOp:
			mop = &parallelDistinctOp{parallelSeg: parallelSeg{segs: segs}, visible: orig.visible}
		default:
			return
		}
	}
	estAt := top
	if estAt < 0 {
		estAt = 0
	}
	if p.est != nil {
		if e, ok := p.est[chain[estAt]]; ok {
			p.est[mop] = e
		}
	}
	if top <= 0 {
		p.root = mop
	} else {
		chain[top-1].(childSetter).setChild(0, mop)
	}
}

// isSegBarrier reports whether op terminates a segment stretch: either it
// blocks the pipeline (materialises its whole input before emitting), or it
// owns cross-row state the coordinator must merge — DISTINCT's dedup set,
// SKIP/LIMIT's global count quotas.
func isSegBarrier(op operation) bool {
	switch op.(type) {
	case *aggregateOp, *sortOp, *topNSortOp, *traverseCountOp, *varLenCountOp, *distinctOp, *skipOp, *limitOp:
		return true
	}
	return false
}

// segMergeable reports whether a barrier's per-segment results can be
// combined without changing semantics. Distinct aggregates cannot: each
// segment's dedup set is local, so summing the deduplicated states would
// double-count values seen by several segments.
func segMergeable(op operation) bool {
	if agg, ok := op.(*aggregateOp); ok {
		for _, it := range agg.items {
			if it.agg != nil && it.agg.distinct {
				return false
			}
		}
	}
	return true
}

// setScanPartition restricts a cloned entry scan to one residue class of
// the scanned id space.
func setScanPartition(op operation, part, parts int) {
	switch s := op.(type) {
	case *allNodeScanOp:
		s.part, s.parts = part, parts
	case *labelScanOp:
		s.part, s.parts = part, parts
	case *indexScanOp:
		s.part, s.parts = part, parts
	}
}

// parallelSeg is the shared core of the merge operations: the segment
// chains, their concurrent driver and the worker-time accounting PROFILE
// reports alongside wall time (summing per-worker elapsed time instead of
// double-counting overlapped wall time).
type parallelSeg struct {
	segs        []operation
	workerNanos atomic.Int64
}

// runSegments drains every segment concurrently on the morsel pool, the
// calling goroutine participating. Each drain callback receives a private
// single-threaded context (forWorker). The pool's completion latch orders
// all segment writes before runSegments returns, so the coordinator reads
// segment state afterwards without further synchronisation.
func (s *parallelSeg) runSegments(ctx *execCtx, drain func(k int, wctx *execCtx) error) error {
	errs := make([]error, len(s.segs))
	pool.ParallelCtx(ctx.sched, len(s.segs), len(s.segs), func(k int) {
		start := time.Now()
		errs[k] = drain(k, ctx.forWorker())
		s.workerNanos.Add(time.Since(start).Nanoseconds())
	})
	for _, err := range errs {
		if err != nil {
			return err
		}
	}
	return nil
}

// describeParallel renders the parallelism degree (EXPLAIN) and, once the
// segments have run, the summed worker time (PROFILE).
func (s *parallelSeg) describeParallel() string {
	d := fmt.Sprintf("workers: %d", len(s.segs))
	if n := s.workerNanos.Load(); n > 0 {
		d += fmt.Sprintf(" | worker time: %.6f ms", float64(n)/1e6)
	}
	return d
}

// drainSeg pulls one segment to exhaustion, buffering its batches.
func drainSeg(seg operation, wctx *execCtx, buf *[]recordBatch) error {
	for {
		b, err := seg.nextBatch(wctx)
		if err != nil {
			return err
		}
		if b == nil {
			return nil
		}
		if wctx.expired() {
			return errSegTimeout
		}
		*buf = append(*buf, b)
	}
}

// parallelGatherOp joins segments whose stretch reaches the plan root with
// no barrier: each segment's batches are buffered and replayed in segment
// order. The query has no ORDER BY at this point (a sort would have been
// the barrier), so segment-major order is as valid as the serial scan
// order — and deterministic for a given segment count.
type parallelGatherOp struct {
	parallelSeg
	out    []recordBatch
	pos    int
	primed bool
}

func (o *parallelGatherOp) nextBatch(ctx *execCtx) (recordBatch, error) {
	if !o.primed {
		bufs := make([][]recordBatch, len(o.segs))
		err := o.runSegments(ctx, func(k int, wctx *execCtx) error {
			return drainSeg(o.segs[k], wctx, &bufs[k])
		})
		if err != nil {
			return nil, err
		}
		for _, bb := range bufs {
			o.out = append(o.out, bb...)
		}
		o.primed = true
	}
	if o.pos >= len(o.out) {
		return nil, nil
	}
	b := o.out[o.pos]
	o.out[o.pos] = nil
	o.pos++
	return b, nil
}

func (o *parallelGatherOp) name() string                 { return "ParallelGather" }
func (o *parallelGatherOp) args() string                 { return o.describeParallel() }
func (o *parallelGatherOp) children() []operation        { return o.segs[:1] }
func (o *parallelGatherOp) setChild(i int, op operation) { o.segs[0] = op }

// parallelAggOp replaces an aggregateOp barrier: every segment runs its
// own hash aggregation over its partition, and the coordinator merges the
// per-segment tables group-by-group in segment order (first occurrence
// adopted, later states folded in with aggState.merge). Keyless
// aggregation works unchanged: each segment materialises the identity
// group, and merging identities is a no-op.
type parallelAggOp struct {
	parallelSeg
	items   []aggItem
	visible int

	groups map[string]*aggGroup
	order  []string
	pos    int
	primed bool
}

func (o *parallelAggOp) nextBatch(ctx *execCtx) (recordBatch, error) {
	if !o.primed {
		err := o.runSegments(ctx, func(k int, wctx *execCtx) error {
			return o.segs[k].(*aggregateOp).consume(wctx)
		})
		if err != nil {
			return nil, err
		}
		o.groups = map[string]*aggGroup{}
		for _, seg := range o.segs {
			agg := seg.(*aggregateOp)
			for _, key := range agg.order {
				src := agg.groups[key]
				dst, ok := o.groups[key]
				if !ok {
					o.groups[key] = src
					o.order = append(o.order, key)
					continue
				}
				for i, it := range o.items {
					if it.agg != nil {
						dst.states[i].merge(it.agg, src.states[i])
					}
				}
			}
		}
		o.primed = true
	}
	if o.pos >= len(o.order) {
		return nil, nil
	}
	bs := ctx.batchSize()
	var out recordBatch
	for o.pos < len(o.order) && len(out) < bs {
		grp := o.groups[o.order[o.pos]]
		o.pos++
		r := newRecord(o.visible)
		ki := 0
		for i, it := range o.items {
			if it.key != nil {
				r[i] = grp.keys[ki]
				ki++
			} else {
				r[i] = grp.states[i].finalize(it.agg)
			}
		}
		out = append(out, r)
	}
	return out, nil
}

func (o *parallelAggOp) name() string { return "ParallelAggregate" }
func (o *parallelAggOp) args() string {
	return fmt.Sprintf("%d columns | %s", o.visible, o.describeParallel())
}
func (o *parallelAggOp) children() []operation        { return o.segs[0].children() }
func (o *parallelAggOp) setChild(i int, op operation) { o.segs[0].(childSetter).setChild(i, op) }

// parallelSortOp replaces a sortOp barrier: segments materialise and sort
// their partitions concurrently, and the coordinator re-sorts the
// concatenated runs with the same stable comparison. Ties across segments
// resolve in segment-major order — deterministic for a given segment
// count, though not byte-identical to the serial scan order.
type parallelSortOp struct {
	parallelSeg
	tmpl *sortOp

	rows   []record
	pos    int
	primed bool
}

func (o *parallelSortOp) nextBatch(ctx *execCtx) (recordBatch, error) {
	if !o.primed {
		err := o.runSegments(ctx, func(k int, wctx *execCtx) error {
			return o.segs[k].(*sortOp).prime(wctx)
		})
		if err != nil {
			return nil, err
		}
		for _, seg := range o.segs {
			o.rows = append(o.rows, seg.(*sortOp).rows...)
		}
		sort.SliceStable(o.rows, func(a, b int) bool {
			return sortLess(o.rows[a], o.rows[b], o.tmpl.visible, o.tmpl.descs)
		})
		o.primed = true
	}
	if o.pos >= len(o.rows) {
		return nil, nil
	}
	bs := ctx.batchSize()
	var out recordBatch
	for o.pos < len(o.rows) && len(out) < bs {
		out = append(out, o.rows[o.pos][:o.tmpl.visible])
		o.pos++
	}
	return out, nil
}

func (o *parallelSortOp) name() string { return "ParallelSortMerge" }
func (o *parallelSortOp) args() string {
	return fmt.Sprintf("%d keys | %s", len(o.tmpl.descs), o.describeParallel())
}
func (o *parallelSortOp) children() []operation        { return o.segs[0].children() }
func (o *parallelSortOp) setChild(i int, op operation) { o.segs[0].(childSetter).setChild(i, op) }

// parallelTopNOp replaces a topNSortOp barrier (ORDER BY + LIMIT fusion):
// each segment keeps its own bounded heap of the best skip+limit records,
// and the coordinator merges the K heaps — at most K·(skip+limit) live
// records regardless of input size — re-sorts, and truncates to the
// global bound.
type parallelTopNOp struct {
	parallelSeg
	tmpl *topNSortOp

	rows   []record
	pos    int
	primed bool
}

func (o *parallelTopNOp) nextBatch(ctx *execCtx) (recordBatch, error) {
	if !o.primed {
		err := o.runSegments(ctx, func(k int, wctx *execCtx) error {
			return o.segs[k].(*topNSortOp).prime(wctx)
		})
		if err != nil {
			return nil, err
		}
		for _, seg := range o.segs {
			o.rows = append(o.rows, seg.(*topNSortOp).h.rows...)
		}
		sort.SliceStable(o.rows, func(a, b int) bool {
			return sortLess(o.rows[a], o.rows[b], o.tmpl.visible, o.tmpl.descs)
		})
		keep, err := o.tmpl.bound(ctx)
		if err != nil {
			return nil, err
		}
		if len(o.rows) > keep {
			o.rows = o.rows[:keep]
		}
		o.primed = true
	}
	if o.pos >= len(o.rows) {
		return nil, nil
	}
	bs := ctx.batchSize()
	var out recordBatch
	for o.pos < len(o.rows) && len(out) < bs {
		out = append(out, o.rows[o.pos][:o.tmpl.visible])
		o.pos++
	}
	return out, nil
}

func (o *parallelTopNOp) name() string { return "ParallelTopNMerge" }
func (o *parallelTopNOp) args() string {
	return fmt.Sprintf("%d keys | top %s | %s", len(o.tmpl.descs), o.tmpl.desc, o.describeParallel())
}
func (o *parallelTopNOp) children() []operation        { return o.segs[0].children() }
func (o *parallelTopNOp) setChild(i int, op operation) { o.segs[0].(childSetter).setChild(i, op) }

// parallelCountOp replaces a count-pushdown barrier (traverseCountOp or
// varLenCountOp): segments count their partitions' reachable destinations
// concurrently and the coordinator sums the per-segment totals into the
// single output record.
type parallelCountOp struct {
	parallelSeg
	done bool
}

func (o *parallelCountOp) nextBatch(ctx *execCtx) (recordBatch, error) {
	if o.done {
		return nil, nil
	}
	o.done = true
	counts := make([]int64, len(o.segs))
	err := o.runSegments(ctx, func(k int, wctx *execCtx) error {
		b, err := o.segs[k].nextBatch(wctx)
		if err != nil {
			return err
		}
		if len(b) == 1 && len(b[0]) > 0 {
			counts[k] = b[0][0].Int()
		}
		return nil
	})
	if err != nil {
		return nil, err
	}
	var total int64
	for _, c := range counts {
		total += c
	}
	r := newRecord(1)
	r[0] = value.NewInt(total)
	return recordBatch{r}, nil
}

// countPushdown is a count-pushdown operation parallelCountOp merges.
type countPushdown interface {
	kernels() *kernelStats
	describe(ks *kernelStats) string
}

func (o *parallelCountOp) name() string { return "ParallelTraverseCount" }

// args shows the counted traversal as the serial operation would, with the
// kernel decisions of every segment summed.
func (o *parallelCountOp) args() string {
	var ks kernelStats
	for _, seg := range o.segs {
		ks.add(seg.(countPushdown).kernels())
	}
	return o.segs[0].(countPushdown).describe(&ks) + " | " + o.describeParallel()
}
func (o *parallelCountOp) children() []operation        { return o.segs[0].children() }
func (o *parallelCountOp) setChild(i int, op operation) { o.segs[0].(childSetter).setChild(i, op) }

// --- segment clones -------------------------------------------------------
//
// Clones copy the immutable planned state and drop runtime state: buffers,
// epoch memos and kernel stats restart per segment. Shared slices
// (predicates, projection items, algebraic expressions) are read-only
// during execution.

// cloneSeg duplicates a pushed scan filter so each segment compiles and
// memoises it privately (the epoch memo is written during execution).
func (f *scanFilter) cloneSeg() *scanFilter {
	if f == nil {
		return nil
	}
	return &scanFilter{labels: f.labels, labelStr: f.labelStr, props: f.props}
}

func (o *allNodeScanOp) cloneSeg() operation {
	return &allNodeScanOp{slot: o.slot, alias: o.alias, width: o.width, pushed: o.pushed.cloneSeg()}
}

func (o *labelScanOp) cloneSeg() operation {
	return &labelScanOp{slot: o.slot, alias: o.alias, label: o.label, width: o.width, pushed: o.pushed.cloneSeg()}
}

func (o *indexScanOp) cloneSeg() operation {
	return &indexScanOp{slot: o.slot, alias: o.alias, label: o.label, attr: o.attr,
		val: o.val, width: o.width, pushed: o.pushed.cloneSeg()}
}

func (o *filterOp) cloneSeg() operation {
	return &filterOp{pred: o.pred, desc: o.desc}
}

func (o *projectOp) cloneSeg() operation {
	return &projectOp{items: o.items, sortKeys: o.sortKeys, visible: o.visible}
}

func (o *unwindOp) cloneSeg() operation {
	return &unwindOp{list: o.list, slot: o.slot, width: o.width}
}

func (o *condTraverseOp) cloneSeg() operation {
	return &condTraverseOp{
		srcSlot:   o.srcSlot,
		dstSlot:   o.dstSlot,
		edgeSlot:  o.edgeSlot,
		width:     o.width,
		batch:     o.batch,
		ae:        o.ae,
		masks:     o.masks,
		typeIDs:   o.typeIDs,
		direction: o.direction,
		optional:  o.optional,
		kthreads:  1,
	}
}

func (o *expandIntoOp) cloneSeg() operation {
	return &expandIntoOp{
		srcSlot:   o.srcSlot,
		dstSlot:   o.dstSlot,
		edgeSlot:  o.edgeSlot,
		width:     o.width,
		batch:     o.batch,
		ae:        o.ae,
		typeIDs:   o.typeIDs,
		direction: o.direction,
		kthreads:  1,
	}
}

func (o *varLenTraverseOp) cloneSeg() operation {
	return &varLenTraverseOp{
		srcSlot:  o.srcSlot,
		dstSlot:  o.dstSlot,
		width:    o.width,
		ae:       o.ae,
		minHops:  o.minHops,
		maxHops:  o.maxHops,
		dstLabel: o.dstLabel,
		dstAE:    o.dstAE,
		kthreads: 1,
	}
}

func (o *aggregateOp) cloneSeg() operation {
	return &aggregateOp{items: o.items, visible: o.visible}
}

func (o *sortOp) cloneSeg() operation {
	return &sortOp{visible: o.visible, descs: o.descs}
}

func (o *topNSortOp) cloneSeg() operation {
	return &topNSortOp{visible: o.visible, descs: o.descs, skip: o.skip, limit: o.limit, desc: o.desc}
}

func (o *traverseCountOp) cloneSeg() operation {
	return &traverseCountOp{t: o.t.cloneSeg().(*condTraverseOp)}
}

func (o *varLenCountOp) cloneSeg() operation {
	return &varLenCountOp{t: o.t.cloneSeg().(*varLenTraverseOp)}
}

func (o *distinctOp) cloneSeg() operation {
	return &distinctOp{visible: o.visible}
}

// parallelDistinctOp replaces a distinctOp barrier: each segment deduplicates
// its own partition while it runs, and the coordinator re-deduplicates the
// buffered per-segment outputs in segment-major order with the same key
// construction. A value present in several partitions survives in the
// lowest-numbered segment that produced it — deterministic for a given
// segment count, though (like ParallelGather) not byte-identical to the
// serial scan order.
type parallelDistinctOp struct {
	parallelSeg
	visible int

	out    []recordBatch
	pos    int
	primed bool
}

func (o *parallelDistinctOp) nextBatch(ctx *execCtx) (recordBatch, error) {
	if !o.primed {
		bufs := make([][]recordBatch, len(o.segs))
		err := o.runSegments(ctx, func(k int, wctx *execCtx) error {
			return drainSeg(o.segs[k], wctx, &bufs[k])
		})
		if err != nil {
			return nil, err
		}
		seen := map[string]bool{}
		for _, bb := range bufs {
			for _, b := range bb {
				out := b[:0]
				for _, r := range b {
					k := distinctKey(r, o.visible)
					if seen[k] {
						continue
					}
					seen[k] = true
					out = append(out, r)
				}
				if len(out) > 0 {
					o.out = append(o.out, out)
				}
			}
		}
		o.primed = true
	}
	if o.pos >= len(o.out) {
		return nil, nil
	}
	b := o.out[o.pos]
	o.out[o.pos] = nil
	o.pos++
	return b, nil
}

func (o *parallelDistinctOp) name() string                 { return "ParallelDistinct" }
func (o *parallelDistinctOp) args() string                 { return o.describeParallel() }
func (o *parallelDistinctOp) children() []operation        { return o.segs[0].children() }
func (o *parallelDistinctOp) setChild(i int, op operation) { o.segs[0].(childSetter).setChild(i, op) }

// parallelSkipLimitOp replaces a SKIP/LIMIT stretch (either op alone or the
// Limit-over-Skip stack): the count quotas are global, so every segment runs
// the chain below the stretch with a per-segment over-produce bound of
// skip+limit rows — any one segment alone can satisfy at most the whole
// window — and the coordinator concatenates the buffered batches in
// segment-major order before applying the global skip, then the limit
// clamp. Like ParallelGather the surviving rows are deterministic for a
// given segment count though not byte-identical to the serial scan order;
// without an ORDER BY (which would have fused to TopNSort or been the
// barrier) any qualifying window of rows is a correct answer.
type parallelSkipLimitOp struct {
	parallelSeg
	skip  evalFn // nil when the stretch had no SKIP
	limit evalFn // nil when the stretch had no LIMIT

	out    []recordBatch
	pos    int
	primed bool
}

func (o *parallelSkipLimitOp) nextBatch(ctx *execCtx) (recordBatch, error) {
	if !o.primed {
		var skip, limit int64 = 0, -1
		if o.skip != nil {
			nv, err := o.skip(ctx, nil)
			if err != nil {
				return nil, err
			}
			if skip = nv.Int(); skip < 0 {
				skip = 0 // negative SKIP skips nothing
			}
		}
		if o.limit != nil {
			nv, err := o.limit(ctx, nil)
			if err != nil {
				return nil, err
			}
			if limit = nv.Int(); limit < 0 {
				limit = 0 // negative LIMIT emits nothing
			}
		}
		quota := int64(-1) // unbounded: SKIP alone still drains everything
		if limit >= 0 {
			quota = skip + limit
		}
		bufs := make([][]recordBatch, len(o.segs))
		err := o.runSegments(ctx, func(k int, wctx *execCtx) error {
			return drainSegQuota(o.segs[k], wctx, &bufs[k], quota)
		})
		if err != nil {
			return nil, err
		}
		remSkip, remLimit := skip, limit
	clamp:
		for _, bb := range bufs {
			for _, b := range bb {
				if remSkip >= int64(len(b)) {
					remSkip -= int64(len(b))
					continue
				}
				b = b[remSkip:]
				remSkip = 0
				if remLimit >= 0 {
					if int64(len(b)) >= remLimit {
						b = b[:remLimit]
						remLimit = 0
					} else {
						remLimit -= int64(len(b))
					}
				}
				if len(b) > 0 {
					o.out = append(o.out, b)
				}
				if remLimit == 0 {
					break clamp
				}
			}
		}
		o.primed = true
	}
	if o.pos >= len(o.out) {
		return nil, nil
	}
	b := o.out[o.pos]
	o.out[o.pos] = nil
	o.pos++
	return b, nil
}

func (o *parallelSkipLimitOp) name() string { return "ParallelSkipLimit" }
func (o *parallelSkipLimitOp) args() string {
	ops := ""
	if o.skip != nil {
		ops = "skip"
	}
	if o.limit != nil {
		if ops != "" {
			ops += "+"
		}
		ops += "limit"
	}
	return ops + " | " + o.describeParallel()
}
func (o *parallelSkipLimitOp) children() []operation        { return o.segs[:1] }
func (o *parallelSkipLimitOp) setChild(i int, op operation) { o.segs[0] = op }

// drainSegQuota drains one segment like drainSeg, stopping early once quota
// rows are buffered (quota < 0 drains to exhaustion) — the per-segment
// over-produce bound for the parallel SKIP/LIMIT clamp.
func drainSegQuota(seg operation, wctx *execCtx, buf *[]recordBatch, quota int64) error {
	var have int64
	for {
		if quota >= 0 && have >= quota {
			return nil
		}
		b, err := seg.nextBatch(wctx)
		if err != nil {
			return err
		}
		if b == nil {
			return nil
		}
		if wctx.expired() {
			return errSegTimeout
		}
		if quota >= 0 && have+int64(len(b)) > quota {
			b = b[:quota-have]
		}
		have += int64(len(b))
		*buf = append(*buf, b)
	}
}
