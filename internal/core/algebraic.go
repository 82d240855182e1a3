package core

import (
	"fmt"
	"sort"
	"strings"

	"redisgraph/internal/graph"
	"redisgraph/internal/grb"
)

// algebraicOperand is one matrix factor in a traversal expression: a
// relation matrix (optionally transposed for inbound traversal) or a
// diagonal label matrix. The operand holds a resolver rather than a matrix
// pointer: resolution happens at evaluation time, under the lock the query
// already holds, so the operand always matches the graph's current
// dimension and write epoch (plans can outlive a concurrent write).
//
// resolveT resolves the operand's TRANSPOSE — the graph maintains R' beside
// every R — which is what the pull (dot-product) kernels multiply by. A nil
// resolveT pins the operand to the push kernel.
type algebraicOperand struct {
	resolve  func(g *graph.Graph) *grb.DeltaMatrix
	resolveT func(g *graph.Graph) *grb.DeltaMatrix
	label    string // display name for EXPLAIN
	diag     bool   // label diagonals: a filter, not a hop; direction is moot
	// meanDeg, when positive, is the planner's conditioned mean degree for
	// this operand's frontier rows — the (source label × relation ×
	// direction) cell's fan-out. The batched push/pull chooser prefers it
	// over the global NVals/dim figure, which both ignores the frontier's
	// label and dilutes the mean with the matrix's padded dimension.
	meanDeg float64
	// connCand, when positive, is the planner's conditioned connected-
	// candidate count: how many output columns carry at least one entry in
	// this operand's effective matrix (the relation's in-direction Conn
	// cells, summed over the traversed types). A pull probe over an
	// unconnected column terminates on a row-pointer check without scanning
	// anything, so the chooser charges only the connected columns the full
	// probe cost — on graphs where edges concentrate on a few columns this
	// collapses the pull estimate by orders of magnitude. Zero means
	// unknown: every candidate is assumed connected, the pre-hint formula.
	connCand int
}

// algebraicExpr is the product RedisGraph builds for each traversal:
// frontier · (SrcLabel?) · Rel · (DstLabel?). Evaluation is a chain of
// vector-matrix products over the boolean ANY_PAIR semiring, against delta
// matrices consulted fold-free.
type algebraicExpr struct {
	operands []algebraicOperand
}

func (ae *algebraicExpr) String() string {
	parts := make([]string, len(ae.operands))
	for i, o := range ae.operands {
		parts[i] = o.label
	}
	return strings.Join(parts, " * ")
}

// dim is the frontier dimension for this evaluation; it must be read under
// the query's lock (matrices only resize inside exclusive mutation bursts).
func (ae *algebraicExpr) dim(ctx *execCtx) int { return ctx.g.Dim() }

// ---- direction-optimizing kernel selection ----

// kernelMode selects the traversal kernel direction for a query:
// density-adaptive per hop (auto), or forced to one direction for
// differential baselines (GRAPH.CONFIG SET TRAVERSE_KERNEL push|pull).
type kernelMode int

const (
	kernelAuto kernelMode = iota
	kernelPush
	kernelPull
)

// parseKernelMode maps Config.TraverseKernel to a kernelMode.
func parseKernelMode(s string) (kernelMode, error) {
	switch strings.ToLower(s) {
	case "", "auto":
		return kernelAuto, nil
	case "push":
		return kernelPush, nil
	case "pull":
		return kernelPull, nil
	}
	return kernelAuto, fmt.Errorf("core: invalid traverse kernel %q (want auto, push or pull)", s)
}

// kernelStats counts a traversal operation's per-hop kernel decisions, so
// PROFILE shows which direction each hop actually ran (one evaluation of a
// relation operand = one decision; label diagonals are not counted).
type kernelStats struct{ push, pull int }

func (k *kernelStats) note(pull bool) {
	if pull {
		k.pull++
	} else {
		k.push++
	}
}

func (k *kernelStats) add(o *kernelStats) {
	k.push += o.push
	k.pull += o.pull
}

// describe renders the recorded decisions for PROFILE ("" before execution,
// so EXPLAIN output is unchanged).
func (k *kernelStats) describe() string {
	switch {
	case k.push == 0 && k.pull == 0:
		return ""
	case k.pull == 0:
		return " | kernel: push"
	case k.push == 0:
		return " | kernel: pull"
	}
	return fmt.Sprintf(" | kernel: mixed(push=%d, pull=%d)", k.push, k.pull)
}

// The chooser's cost constants, calibrated on the kernel-select benchmark's
// power-law graphs (scale 14): one unit ≈ the cost of scattering one
// adjacency entry in the push kernel.
const (
	// pullProbeCost is the per-candidate cost of one pull probe relative to
	// one push scatter. Measured near 1.15 on the power-law benches — most
	// candidates have short in-lists and dense-frontier hits exit on the
	// first couple of entries — so 1.2 biases the tie slightly toward push.
	pullProbeCost = 1.2
	// emptyProbeCost is the per-candidate cost of a pull probe that finds an
	// empty in-list: two row-pointer loads and a compare, no entry scanned
	// and no frontier lookup. Charged to the candidates beyond the operand's
	// conditioned connected count (connCand), when the planner supplied one.
	emptyProbeCost = 0.1
	// expandProbeCost compares an expand-into point probe (a binary search,
	// ~log degree) against building the record's whole ~mean-degree result
	// row in the push path.
	expandProbeCost = 4.0
)

// pullEligible applies the checks shared by both choosers: forced modes,
// operands without a transpose, and label diagonals (a filter either way).
// decided reports whether the mode alone settles the direction.
func (ctx *execCtx) pullEligible(op *algebraicOperand) (bt *grb.DeltaMatrix, pull, decided bool) {
	if op.diag || op.resolveT == nil {
		return nil, false, true
	}
	switch ctx.kernel {
	case kernelPush:
		return nil, false, true
	case kernelPull:
		bt := ctx.resolveOperandT(op)
		return bt, bt != nil, true
	}
	return nil, false, false
}

// choosePull decides the kernel direction for one batched (matrix-frontier)
// hop and resolves the transpose operand when pull wins.
//
// The cost model: push scatters the adjacency row of every frontier entry —
// ~ fnnz · meanDegree entries touched, where the mean degree is the
// planner's conditioned (label × relation × direction) hint when available
// and the global NVals(B)/dim otherwise — while pull
// probes each candidate output position's in-neighbour list with early
// exit, ~ candidates · pullProbeCost. The frontier NVals, the candidate-set
// size and the operand's O(1) delta-matrix NVals are all the chooser needs;
// below the bitmap density (dim/denseThreshold) push always wins and the
// comparison is skipped.
func (ctx *execCtx) choosePull(op *algebraicOperand, fnnz, candidates int) (*grb.DeltaMatrix, bool) {
	if bt, pull, decided := ctx.pullEligible(op); decided {
		return bt, pull
	}
	dim := ctx.g.Dim()
	if dim == 0 || fnnz*grb.DenseThreshold < dim {
		return nil, false
	}
	b := ctx.resolveOperand(op)
	if b == nil {
		return nil, false
	}
	meanDeg := float64(b.NVals()) / float64(dim)
	if op.meanDeg > 0 {
		meanDeg = op.meanDeg
	}
	pushCost := float64(fnnz) * meanDeg
	// Both kernels now split their work across the shared morsel pool
	// (row-partitioned push, column-partitioned pull), so the thread budget
	// cancels out of the comparison.
	pullCost := pullCostEst(op, candidates)
	if pushCost <= pullCost {
		return nil, false
	}
	bt := ctx.resolveOperandT(op)
	return bt, bt != nil
}

// pullCostEst prices a pull evaluation over `candidates` output positions.
// With a conditioned connected-candidate hint, only connCand columns pay a
// full early-exit probe; the rest are empty in-lists dismissed by a
// row-pointer check. The hint is an upper bound summed over the traversed
// types (shared columns counted once per type), so a hint at or above the
// candidate count degenerates to the unconditioned all-connected formula.
func pullCostEst(op *algebraicOperand, candidates int) float64 {
	if op.connCand > 0 && op.connCand < candidates {
		return float64(op.connCand)*pullProbeCost +
			float64(candidates-op.connCand)*emptyProbeCost
	}
	return float64(candidates) * pullProbeCost
}

// choosePullVec is the vector-frontier chooser (per-record and var-length
// paths). Unlike the batched chooser it can afford the exact push cost —
// the sum of the frontier entries' out-degrees (direction-optimizing BFS's
// m_f, an O(frontier) pass of row-pointer arithmetic) — which matters
// because a BFS frontier's mean degree drifts far from the global mean:
// mid-BFS frontiers hold the graph's high-degree core, so a frontier well
// below the bitmap fill ratio can still carry half the graph's edges — and
// that edge weight, not the entry count, is what push pays for. The degree
// sum early-exits once it clears the pull budget, so the chooser's overhead
// stays bounded by the cheaper kernel's cost.
func (ctx *execCtx) choosePullVec(op *algebraicOperand, frontier *grb.Vector, candidates int) (*grb.DeltaMatrix, bool) {
	if bt, pull, decided := ctx.pullEligible(op); decided {
		return bt, pull
	}
	b := ctx.resolveOperand(op)
	if b == nil {
		return nil, false
	}
	budget := pullCostEst(op, candidates)
	pushCost := 0.0
	frontier.Iterate(func(i grb.Index, _ float64) bool {
		pushCost += float64(b.RowDegree(i))
		return pushCost <= budget
	})
	if pushCost <= budget {
		return nil, false
	}
	bt := ctx.resolveOperandT(op)
	return bt, bt != nil
}

// eval propagates the frontier through every operand, choosing push or pull
// per hop (ks, when non-nil, records each relation-operand decision).
//
// keep, when non-nil, is the pushed destination-predicate column mask. Every
// operand after the relation is a label diagonal (column-identity
// preserving), so the mask may legally apply at the FIRST operand: a pull
// evaluation hands it to the kernel, pruning candidate in-neighbour scans;
// a push evaluation leaves it for one post-evaluation SelectColsVec pass.
// Either way the result is guaranteed keep-masked.
func (ae *algebraicExpr) eval(ctx *execCtx, frontier *grb.Vector, ks *kernelStats, keep grb.ColMask) (*grb.Vector, error) {
	dim := ae.dim(ctx)
	w := frontier
	kernelKept := false
	for i := range ae.operands {
		op := &ae.operands[i]
		m := ctx.resolveOperand(op)
		if m == nil {
			return nil, errEmptyRelation
		}
		out := grb.NewVector(dim)
		bt, pull := ctx.choosePullVec(op, w, dim)
		if pull {
			var kk grb.ColMask
			if i == 0 && keep != nil {
				kk, kernelKept = keep, true
			}
			if err := grb.VxMPull(out, nil, nil, grb.AnyPair, w, bt, kk, ctx.desc); err != nil {
				return nil, err
			}
		} else if err := grb.VxMDelta(out, nil, nil, grb.AnyPair, w, m, ctx.desc); err != nil {
			return nil, err
		}
		if ks != nil && !op.diag {
			ks.note(pull)
		}
		w = out
	}
	if keep != nil && !kernelKept {
		grb.SelectColsVec(w, keep)
	}
	return w, nil
}

// evalMatrix propagates a whole batch of frontiers — one per row of f — in
// one masked MxM per operand. This is the paper's central claim realised:
// many traversals fused into a single sparse matrix–matrix multiplication
// over the ANY_PAIR semiring, instead of one kernel call per record. Each
// operand multiplication independently picks the push (Gustavson) or pull
// (transpose dot-product) kernel from the fused frontier's density.
//
// keep carries the pushed destination predicates as a column mask, applied
// at the relation operand when it pulls (candidate pruning inside MxMPull)
// and as one post-evaluation SelectCols pass otherwise — see eval for why
// first-operand application is sound.
func (ae *algebraicExpr) evalMatrix(ctx *execCtx, f *grb.Matrix, ks *kernelStats, keep grb.ColMask) (*grb.Matrix, error) {
	dim := ae.dim(ctx)
	w := f
	kernelKept := false
	for i := range ae.operands {
		op := &ae.operands[i]
		m := ctx.resolveOperand(op)
		if m == nil {
			return nil, errEmptyRelation
		}
		out := grb.NewMatrix(f.NRows(), dim)
		bt, pull := ctx.choosePull(op, w.NVals(), dim)
		if pull {
			var kk grb.ColMask
			if i == 0 && keep != nil {
				kk, kernelKept = keep, true
			}
			if err := grb.MxMPull(out, grb.AnyPair, w, bt, kk, ctx.desc); err != nil {
				return nil, err
			}
		} else if err := grb.MxMDelta(out, nil, nil, grb.AnyPair, w, m, ctx.desc); err != nil {
			return nil, err
		}
		if ks != nil && !op.diag {
			ks.note(pull)
		}
		w = out
	}
	if keep != nil && !kernelKept {
		grb.SelectCols(w, keep, ctx.desc)
	}
	return w, nil
}

// evalMasked evaluates with a complemented structural mask (used by
// variable-length traversal to exclude already-reached nodes). The mask
// shrinks the pull kernel's candidate set — unreached nodes only — which is
// exactly the bottom-up BFS regime, so the chooser costs pull against the
// unreached count rather than the full dimension.
func (ae *algebraicExpr) evalMasked(ctx *execCtx, frontier, reached *grb.Vector, ks *kernelStats) (*grb.Vector, error) {
	dim := ae.dim(ctx)
	w := frontier
	for i := range ae.operands {
		op := &ae.operands[i]
		m := ctx.resolveOperand(op)
		if m == nil {
			return nil, errEmptyRelation
		}
		out := grb.NewVector(dim)
		var mask *grb.Vector
		d := ctx.desc
		candidates := dim
		if i == len(ae.operands)-1 {
			mask = reached
			md := *ctx.desc
			md.Comp, md.Structure, md.Replace = true, true, true
			d = &md
			if c := dim - reached.NVals(); c >= 0 {
				candidates = c
			}
		}
		bt, pull := ctx.choosePullVec(op, w, candidates)
		if pull {
			if err := grb.VxMPull(out, mask, nil, grb.AnyPair, w, bt, nil, d); err != nil {
				return nil, err
			}
		} else if err := grb.VxMDelta(out, mask, nil, grb.AnyPair, w, m, d); err != nil {
			return nil, err
		}
		if ks != nil && !op.diag {
			ks.note(pull)
		}
		w = out
	}
	return w, nil
}

// orderLabelsBySelectivity returns the labels ordered smallest-cardinality
// first. When several label diagonals fold into one algebraic expression,
// multiplying the most selective diagonal first shrinks every later
// intermediate product — the operand-ordering half of the cost-based
// planner. Unknown labels sort first (they empty the chain anyway). The
// sort is stable, so equal-cardinality labels keep their written order.
func (b *planBuilder) orderLabelsBySelectivity(labels []string) []string {
	if len(labels) < 2 {
		return labels
	}
	out := append([]string(nil), labels...)
	count := func(l string) int {
		lid, ok := b.g.Schema.LabelID(l)
		if !ok {
			return -1
		}
		return b.gs.LabelCount(lid)
	}
	sort.SliceStable(out, func(i, j int) bool { return count(out[i]) < count(out[j]) })
	return out
}

// relationOperand resolves the matrix for a relationship hop.
// types empty = any relation (THE adjacency matrix). reverse selects the
// transposed matrices (inbound), both unions the two directions. Multi-type
// and both-direction unions come from the graph's epoch-keyed cache instead
// of being folded anew for every query; the operand re-resolves at
// evaluation time so a union is never stale. The transpose resolver flips
// the direction flag (an undirected union is its own transpose), feeding the
// pull kernels the same fold-free delta matrices the push kernels get.
func relationOperand(g *graph.Graph, typeIDs []int, anyType, reverse, both bool) (algebraicOperand, error) {
	name := "ADJ"
	if !anyType {
		names := make([]string, len(typeIDs))
		for i, t := range typeIDs {
			names[i] = g.Schema.RelTypeName(t)
		}
		name = strings.Join(names, "|")
	}
	switch {
	case both:
		name = name + "±"
	case reverse:
		name = name + "ᵀ"
	}
	if g.TraversalMatrix(typeIDs, anyType, reverse, both) == nil {
		return algebraicOperand{}, errEmptyRelation
	}
	reverseT := reverse
	if !both {
		reverseT = !reverse
	}
	return algebraicOperand{
		resolve: func(g *graph.Graph) *grb.DeltaMatrix {
			return g.TraversalMatrix(typeIDs, anyType, reverse, both)
		},
		resolveT: func(g *graph.Graph) *grb.DeltaMatrix {
			return g.TraversalMatrix(typeIDs, anyType, reverseT, both)
		},
		label: name,
	}, nil
}

var errEmptyRelation = fmt.Errorf("core: relation type has no matrix")
