package core

import (
	"fmt"
	"strings"

	"redisgraph/internal/graph"
	"redisgraph/internal/grb"
	"redisgraph/internal/value"
)

// argumentOp emits a single empty record: the leaf of CREATE-only queries
// and projections with no reading clause (RETURN 1+1).
type argumentOp struct {
	width int
	done  bool
}

func (o *argumentOp) nextBatch(*execCtx) (recordBatch, error) {
	if o.done {
		return nil, nil
	}
	o.done = true
	return recordBatch{newRecord(o.width)}, nil
}

func (o *argumentOp) name() string          { return "Argument" }
func (o *argumentOp) args() string          { return "" }
func (o *argumentOp) children() []operation { return nil }

// emptyOp yields no records: the pattern names a label or relation type
// that does not exist. A child, when set, is the write pipeline planned
// before the pattern; it is drained first so those writes still happen.
type emptyOp struct {
	child   operation
	drained bool
}

func (o *emptyOp) nextBatch(ctx *execCtx) (recordBatch, error) {
	for o.child != nil && !o.drained {
		b, err := o.child.nextBatch(ctx)
		if err != nil {
			return nil, err
		}
		o.drained = b == nil
	}
	return nil, nil
}
func (o *emptyOp) name() string { return "Empty" }
func (o *emptyOp) args() string { return "" }
func (o *emptyOp) children() []operation {
	if o.child == nil {
		return nil
	}
	return []operation{o.child}
}
func (o *emptyOp) setChild(i int, op operation) { o.child = op }

// scanPropEq is one property comparison pushed into a scan: the value
// expression is record-free (literal or parameter), so it is evaluated once
// per scan pass and compared against each candidate directly, without a
// record ever being materialised for non-matching nodes. op is one of
// = <> < <= > >= (empty means =).
type scanPropEq struct {
	attr string
	op   string
	val  evalFn
	desc string
}

// cmpKeep reports whether `have op want` keeps a record under the engine's
// filter semantics (compareValues): undefined comparisons evaluate to Cypher
// null, which is not true and drops the record.
func cmpKeep(op string, have, want value.Value) bool {
	if op == "" {
		op = "="
	}
	return compareValues(op, have, want).IsTrue()
}

// scanFilter is the set of predicates pushed below record materialisation in
// a scan: extra label memberships (checked through grb.DiagMask over the
// label matrices — fold-free diagonal probes) and record-free property
// equalities.
type scanFilter struct {
	labels   []int    // required label ids beyond the scan's own
	labelStr []string // display names for EXPLAIN
	props    []scanPropEq

	// compile memoisation: the filter is record-free, so one compilation
	// covers the whole query unless a mutation burst bumps the epoch.
	cached      compiledScanFilter
	cachedEpoch uint64
	cachedOK    bool
}

func (f *scanFilter) empty() bool {
	return f == nil || (len(f.labels) == 0 && len(f.props) == 0)
}

// describe renders the pushed predicates for EXPLAIN.
func (f *scanFilter) describe() string {
	if f.empty() {
		return ""
	}
	parts := make([]string, 0, len(f.labelStr)+len(f.props))
	for _, l := range f.labelStr {
		parts = append(parts, ":"+l)
	}
	for _, p := range f.props {
		parts = append(parts, p.desc)
	}
	return " | pushed: " + strings.Join(parts, ", ")
}

// compile resolves the filter against the live graph: a combined label mask
// and the evaluated property targets. Property values are record-free, so
// one evaluation covers the whole pass.
type compiledScanFilter struct {
	mask  grb.ColMask
	props []scanPropCmp
}

// scanPropCmp is one pushed property comparison with its target evaluated.
type scanPropCmp struct {
	attr string
	op   string
	want value.Value
}

func (f *scanFilter) compile(ctx *execCtx) (compiledScanFilter, error) {
	var out compiledScanFilter
	if f.empty() {
		return out, nil
	}
	if ep := ctx.g.Epoch(); f.cachedOK && f.cachedEpoch == ep {
		return f.cached, nil
	}
	if len(f.labels) > 0 {
		masks := make([]grb.ColMask, 0, len(f.labels))
		for _, lid := range f.labels {
			lm := ctx.g.LabelMatrix(lid)
			if lm == nil {
				out.mask = func(grb.Index) bool { return false }
				masks = nil
				break
			}
			masks = append(masks, grb.DiagMask(lm))
		}
		if masks != nil {
			out.mask = grb.AndMasks(masks)
		}
	}
	for _, p := range f.props {
		want, err := p.val(ctx, nil)
		if err != nil {
			return out, err
		}
		out.props = append(out.props, scanPropCmp{p.attr, p.op, want})
	}
	f.cached, f.cachedEpoch, f.cachedOK = out, ctx.g.Epoch(), true
	return out, nil
}

// admit reports whether node id passes the compiled filter.
func (c *compiledScanFilter) admit(ctx *execCtx, id uint64, n *graph.Node) bool {
	return c.admitMask(id) && c.admitProps(ctx, n)
}

// admitMask applies only the pushed label masks.
func (c *compiledScanFilter) admitMask(id uint64) bool {
	return c.mask == nil || c.mask(grb.Index(id))
}

// admitProps applies only the pushed property comparisons, through the
// per-row map path. The columnar scans skip it: their candidate lists are
// prefiltered by filterIDsColumnar before any record exists.
func (c *compiledScanFilter) admitProps(ctx *execCtx, n *graph.Node) bool {
	for _, p := range c.props {
		if !cmpKeep(p.op, ctx.g.NodeProperty(n, p.attr), p.want) {
			return false
		}
	}
	return true
}

// allNodeScanOp scans every live node in batches. With a child, it re-scans
// per child record (cartesian product).
type allNodeScanOp struct {
	child  operation
	slot   int
	alias  string
	width  int
	pushed *scanFilter

	// part/parts restrict the scan to one residue class of the id space
	// (id % parts == part) when the planner splits the pipeline into
	// parallel segments. parts <= 1 scans everything.
	part  int
	parts int

	in     batchPuller
	cur    record
	arena  recordArena
	nextID uint64
	primed bool
	done   bool

	// Columnar pass state: when the pushed predicates compile against typed
	// columns (compileColPreds), the scan swaps its full [0, Dim) sweep for
	// the first column's candidate list, vectorially filtered at prime time —
	// rows without the attribute can never pass a predicate, so they are
	// skipped wholesale.
	colIDs bool
	ids    []uint64
	pos    int
}

// loadColumnarIDs builds the fully filtered candidate list for one pass:
// candidates from the first predicate's column, residue-class striping and
// pushed label masks applied, then the vectorized predicate loop.
func (o *allNodeScanOp) loadColumnarIDs(ctx *execCtx, cf *compiledScanFilter, preds []colPred) {
	o.ids = preds[0].col.AppendIDs(o.ids[:0])
	if o.parts > 1 || cf.mask != nil {
		kept := o.ids[:0]
		for _, id := range o.ids {
			if o.parts > 1 && int(id)%o.parts != o.part {
				continue
			}
			if !cf.admitMask(id) {
				continue
			}
			kept = append(kept, id)
		}
		o.ids = kept
	}
	o.ids = filterIDsColumnar(ctx, preds, o.ids)
}

func (o *allNodeScanOp) nextBatch(ctx *execCtx) (recordBatch, error) {
	if o.done {
		return nil, nil
	}
	bs := ctx.batchSize()
	cf, err := o.pushed.compile(ctx)
	if err != nil {
		return nil, err
	}
	var out recordBatch
	for len(out) < bs {
		if !o.primed {
			if o.child != nil {
				r, err := o.in.pull(ctx, o.child)
				if err != nil {
					return nil, err
				}
				if r == nil {
					o.done = true
					break
				}
				o.cur = r
			} else {
				if o.cur != nil {
					o.done = true
					break
				}
				o.cur = newRecord(o.width)
			}
			o.nextID = 0
			o.colIDs = false
			if preds, ok := compileColPreds(ctx, cf.props); ok {
				o.loadColumnarIDs(ctx, &cf, preds)
				o.colIDs, o.pos = true, 0
			}
			o.primed = true
		}
		if o.colIDs {
			for o.pos < len(o.ids) && len(out) < bs {
				id := o.ids[o.pos]
				o.pos++
				if n, ok := ctx.g.GetNode(id); ok {
					r := o.arena.extended(o.cur, o.width)
					r[o.slot] = value.NewNode(id, n)
					out = append(out, r)
				}
			}
			if o.pos >= len(o.ids) {
				o.primed = false
				if o.child == nil && len(out) == 0 {
					o.done = true
					break
				}
			}
			continue
		}
		high := uint64(ctx.g.Dim())
		for o.nextID < high && len(out) < bs {
			id := o.nextID
			o.nextID++
			if o.parts > 1 && int(id)%o.parts != o.part {
				continue
			}
			if n, ok := ctx.g.GetNode(id); ok && cf.admit(ctx, id, n) {
				r := o.arena.extended(o.cur, o.width)
				r[o.slot] = value.NewNode(id, n)
				out = append(out, r)
			}
		}
		if o.nextID >= high {
			o.primed = false
			if o.child == nil && len(out) == 0 {
				o.done = true
				break
			}
		}
	}
	if len(out) == 0 {
		return nil, nil
	}
	return out, nil
}

func (o *allNodeScanOp) name() string { return "AllNodeScan" }
func (o *allNodeScanOp) args() string {
	return o.alias + o.pushed.describe() + describeSegment(o.part, o.parts)
}
func (o *allNodeScanOp) children() []operation {
	if o.child == nil {
		return nil
	}
	return []operation{o.child}
}

func (o *allNodeScanOp) setChild(i int, op operation) { o.child = op }

// labelScanOp scans the diagonal of a label matrix in batches. Pushed extra
// labels intersect the candidate set through diagonal masks before any
// record exists.
type labelScanOp struct {
	child  operation
	slot   int
	alias  string
	label  string
	width  int
	pushed *scanFilter

	// part/parts restrict the scan to one residue class of the label's
	// tuple positions when the pipeline runs as parallel segments.
	part  int
	parts int

	in     batchPuller
	cur    record
	arena  recordArena
	ids    []uint64
	pos    int
	primed bool
	done   bool

	// colFiltered marks a pass whose candidate list was already run through
	// the vectorized predicate loop, so the emit loop skips per-row property
	// checks entirely.
	colFiltered bool
}

func (o *labelScanOp) loadIDs(ctx *execCtx, cf *compiledScanFilter) {
	o.ids = o.ids[:0]
	o.colFiltered = false
	lid, ok := ctx.g.Schema.LabelID(o.label)
	if !ok {
		return
	}
	lm := ctx.g.LabelMatrix(lid)
	if lm == nil {
		return
	}
	// Walk the label diagonal in place; k is the tuple position.
	k := 0
	lm.Iterate(func(r, _ grb.Index, _ float64) bool {
		if o.parts <= 1 || k%o.parts == o.part {
			if cf.mask == nil || cf.mask(r) {
				o.ids = append(o.ids, uint64(r))
			}
		}
		k++
		return true
	})
	// Striping happens on tuple positions above, exactly as in the map path,
	// so each parallel segment filters the same stripe it always scanned.
	if preds, ok := compileColPreds(ctx, cf.props); ok {
		o.ids = filterIDsColumnar(ctx, preds, o.ids)
		o.colFiltered = true
	}
}

func (o *labelScanOp) nextBatch(ctx *execCtx) (recordBatch, error) {
	if o.done {
		return nil, nil
	}
	bs := ctx.batchSize()
	cf, err := o.pushed.compile(ctx)
	if err != nil {
		return nil, err
	}
	var out recordBatch
	for len(out) < bs {
		if !o.primed {
			if o.child != nil {
				r, err := o.in.pull(ctx, o.child)
				if err != nil {
					return nil, err
				}
				if r == nil {
					o.done = true
					break
				}
				o.cur = r
			} else {
				if o.cur != nil {
					o.done = true
					break
				}
				o.cur = newRecord(o.width)
			}
			o.loadIDs(ctx, &cf)
			o.pos = 0
			o.primed = true
		}
		for o.pos < len(o.ids) && len(out) < bs {
			id := o.ids[o.pos]
			o.pos++
			n, ok := ctx.g.GetNode(id)
			if !ok {
				continue
			}
			// Labels were masked in loadIDs; property checks remain unless
			// the columnar prefilter already ran.
			if !o.colFiltered && !cf.admitProps(ctx, n) {
				continue
			}
			r := o.arena.extended(o.cur, o.width)
			r[o.slot] = value.NewNode(id, n)
			out = append(out, r)
		}
		if o.pos >= len(o.ids) {
			o.primed = false
			if o.child == nil && len(out) == 0 {
				o.done = true
				break
			}
		}
	}
	if len(out) == 0 {
		return nil, nil
	}
	return out, nil
}

func (o *labelScanOp) name() string {
	return "NodeByLabelScan"
}
func (o *labelScanOp) args() string {
	return fmt.Sprintf("%s:%s%s%s", o.alias, o.label, o.pushed.describe(), describeSegment(o.part, o.parts))
}
func (o *labelScanOp) children() []operation {
	if o.child == nil {
		return nil
	}
	return []operation{o.child}
}

func (o *labelScanOp) setChild(i int, op operation) { o.child = op }

// indexScanOp resolves nodes through an exact-match attribute index, in
// batches. Pushed predicates filter the index seeds directly.
type indexScanOp struct {
	child  operation
	slot   int
	alias  string
	label  string
	attr   string
	val    evalFn
	width  int
	pushed *scanFilter

	// part/parts restrict an entry-point scan to one residue class of the
	// seed list's positions (not the id values: index postings are often
	// skewed, and position striping balances segments regardless of how ids
	// were assigned). Only set on childless clones by parallelizePlan.
	part  int
	parts int

	in     batchPuller
	cur    record
	arena  recordArena
	ids    []uint64
	pos    int
	primed bool
	done   bool

	// colFiltered marks a pass whose seed list was prefiltered by the
	// vectorized predicate loop; the emit loop then applies only label masks.
	colFiltered bool
}

func (o *indexScanOp) loadSeeds(ctx *execCtx, cf *compiledScanFilter) error {
	o.ids = nil
	o.colFiltered = false
	lid, okL := ctx.g.Schema.LabelID(o.label)
	aid, okA := ctx.g.Schema.AttrID(o.attr)
	if !okL || !okA {
		return nil
	}
	ix, ok := ctx.g.Schema.Index(lid, aid)
	if !ok {
		return nil
	}
	v, err := o.val(ctx, o.cur)
	if err != nil {
		return err
	}
	o.ids = ix.Lookup(v)
	if o.parts > 1 {
		var mine []uint64
		for k, id := range o.ids {
			if k%o.parts == o.part {
				mine = append(mine, id)
			}
		}
		o.ids = mine
	}
	if preds, ok := compileColPreds(ctx, cf.props); ok {
		if o.parts <= 1 {
			// Lookup returns the live posting list; copy before compacting.
			o.ids = append([]uint64(nil), o.ids...)
		}
		o.ids = filterIDsColumnar(ctx, preds, o.ids)
		o.colFiltered = true
	}
	return nil
}

func (o *indexScanOp) nextBatch(ctx *execCtx) (recordBatch, error) {
	if o.done {
		return nil, nil
	}
	bs := ctx.batchSize()
	cf, err := o.pushed.compile(ctx)
	if err != nil {
		return nil, err
	}
	var out recordBatch
	for len(out) < bs {
		if !o.primed {
			if o.child != nil {
				r, err := o.in.pull(ctx, o.child)
				if err != nil {
					return nil, err
				}
				if r == nil {
					o.done = true
					break
				}
				o.cur = r
			} else {
				if o.cur != nil {
					o.done = true
					break
				}
				o.cur = newRecord(o.width)
			}
			if err := o.loadSeeds(ctx, &cf); err != nil {
				return nil, err
			}
			o.pos = 0
			o.primed = true
		}
		for o.pos < len(o.ids) && len(out) < bs {
			id := o.ids[o.pos]
			o.pos++
			n, ok := ctx.g.GetNode(id)
			if !ok {
				continue
			}
			if o.colFiltered {
				if !cf.admitMask(id) {
					continue
				}
			} else if !cf.admit(ctx, id, n) {
				continue
			}
			r := o.arena.extended(o.cur, o.width)
			r[o.slot] = value.NewNode(id, n)
			out = append(out, r)
		}
		if o.pos >= len(o.ids) {
			o.primed = false
			if o.child == nil && len(out) == 0 {
				o.done = true
				break
			}
		}
	}
	if len(out) == 0 {
		return nil, nil
	}
	return out, nil
}

func (o *indexScanOp) name() string { return "NodeByIndexScan" }
func (o *indexScanOp) args() string {
	return fmt.Sprintf("%s:%s(%s)%s%s", o.alias, o.label, o.attr, o.pushed.describe(), describeSegment(o.part, o.parts))
}
func (o *indexScanOp) children() []operation {
	if o.child == nil {
		return nil
	}
	return []operation{o.child}
}

func (o *indexScanOp) setChild(i int, op operation) { o.child = op }

// pushScan attaches a pushed predicate to any of the three scan operations.
// It returns false for non-scan operations, leaving the predicate to the
// residual filter path.
func pushScan(op operation, lid int, label string, prop *scanPropEq) bool {
	var f **scanFilter
	switch s := op.(type) {
	case *allNodeScanOp:
		f = &s.pushed
	case *labelScanOp:
		f = &s.pushed
	case *indexScanOp:
		f = &s.pushed
	default:
		return false
	}
	if *f == nil {
		*f = &scanFilter{}
	}
	if prop != nil {
		(*f).props = append((*f).props, *prop)
	} else {
		(*f).labels = append((*f).labels, lid)
		(*f).labelStr = append((*f).labelStr, label)
	}
	return true
}

// describeSegment renders a partitioned scan's residue class for
// EXPLAIN/PROFILE (1-based, matching the "workers: K" merge annotation).
func describeSegment(part, parts int) string {
	if parts <= 1 {
		return ""
	}
	return fmt.Sprintf(" | segment %d/%d", part+1, parts)
}

// scanPushedProps reports whether op is a scan with pushed property
// predicates — the operations the columnar store vectorizes. EXPLAIN uses it
// to annotate those scans with the active property-store mode.
func scanPushedProps(op operation) bool {
	var f *scanFilter
	switch s := op.(type) {
	case *allNodeScanOp:
		f = s.pushed
	case *labelScanOp:
		f = s.pushed
	case *indexScanOp:
		f = s.pushed
	default:
		return false
	}
	return f != nil && len(f.props) > 0
}

// nodeHasLabel filters by interned label id.
func nodeHasLabel(n *graph.Node, lid int) bool {
	for _, l := range n.Labels {
		if l == lid {
			return true
		}
	}
	return false
}
