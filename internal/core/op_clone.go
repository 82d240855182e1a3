// Plan-template cloning: the plan cache stores each plan as an immutable,
// never-executed template and clones the whole operation tree per execution.
// Operations are mutable single-use object graphs — they carry pull buffers,
// epoch-keyed memos, dedup sets and done flags that are written as the query
// runs — so a cached plan can only be reused by duplicating every node and
// letting the runtime state start from zero. The clones share the immutable
// planned state: compiled expressions (evalFn closures look parameters up in
// the execution context, so `$param`-driven index seeds, scan filters and
// destination masks re-bind per execution for free), algebraic expressions
// and operands, aggregate specs, slot layouts and EXPLAIN descriptions.
//
// cloneSeg (parallel.go) is not enough here: it deliberately drops children
// and scan partitions because parallelizePlan rewires both. Template cloning
// must reproduce the full tree, including write operations and merge
// sub-plans, and carry the cardinality-estimate map across so EXPLAIN and
// PROFILE stay annotated on instantiated plans.
package core

// clonePlan deep-copies a plan template into a fresh executable plan,
// translating the cardinality-estimate map onto the cloned operations.
// It returns nil when the tree contains an operation it cannot clone
// (decorated or already-parallelised plans are never templates); callers
// fall back to planning from scratch.
func clonePlan(p *Plan) *Plan {
	memo := map[operation]operation{}
	root := cloneOpTree(p.root, memo)
	if root == nil {
		return nil
	}
	est := make(map[operation]float64, len(p.est))
	for op, e := range p.est {
		if c, ok := memo[op]; ok {
			est[c] = e
		}
	}
	return &Plan{root: root, columns: p.columns, visible: p.visible, ReadOnly: p.ReadOnly, est: est}
}

// cloneOpTree duplicates one operation and, recursively, its inputs,
// recording every original→clone pair in memo. Unknown operation types
// yield nil, which poisons the whole clone.
func cloneOpTree(op operation, memo map[operation]operation) operation {
	if op == nil {
		return nil
	}
	child := func(c operation) (operation, bool) {
		if c == nil {
			return nil, true
		}
		cc := cloneOpTree(c, memo)
		return cc, cc != nil
	}
	var out operation
	switch o := op.(type) {
	case *argumentOp:
		out = &argumentOp{width: o.width}
	case *emptyOp:
		c, ok := child(o.child)
		if !ok {
			return nil
		}
		out = &emptyOp{child: c}
	case *indexOp:
		out = &indexOp{create: o.create, label: o.label, attr: o.attr}
	case *allNodeScanOp:
		c, ok := child(o.child)
		if !ok {
			return nil
		}
		out = &allNodeScanOp{child: c, slot: o.slot, alias: o.alias, width: o.width, pushed: o.pushed.cloneSeg()}
	case *labelScanOp:
		c, ok := child(o.child)
		if !ok {
			return nil
		}
		out = &labelScanOp{child: c, slot: o.slot, alias: o.alias, label: o.label, width: o.width, pushed: o.pushed.cloneSeg()}
	case *indexScanOp:
		c, ok := child(o.child)
		if !ok {
			return nil
		}
		out = &indexScanOp{child: c, slot: o.slot, alias: o.alias, label: o.label, attr: o.attr,
			val: o.val, width: o.width, pushed: o.pushed.cloneSeg()}
	case *filterOp:
		c, ok := child(o.child)
		if !ok {
			return nil
		}
		out = &filterOp{child: c, pred: o.pred, desc: o.desc}
	case *projectOp:
		c, ok := child(o.child)
		if !ok {
			return nil
		}
		out = &projectOp{child: c, items: o.items, sortKeys: o.sortKeys, visible: o.visible}
	case *aggregateOp:
		c, ok := child(o.child)
		if !ok {
			return nil
		}
		out = &aggregateOp{child: c, items: o.items, visible: o.visible}
	case *distinctOp:
		c, ok := child(o.child)
		if !ok {
			return nil
		}
		out = &distinctOp{child: c, visible: o.visible}
	case *sortOp:
		c, ok := child(o.child)
		if !ok {
			return nil
		}
		out = &sortOp{child: c, visible: o.visible, descs: o.descs}
	case *topNSortOp:
		c, ok := child(o.child)
		if !ok {
			return nil
		}
		out = &topNSortOp{child: c, visible: o.visible, descs: o.descs, skip: o.skip, limit: o.limit, desc: o.desc}
	case *skipOp:
		c, ok := child(o.child)
		if !ok {
			return nil
		}
		out = &skipOp{child: c, n: o.n}
	case *limitOp:
		c, ok := child(o.child)
		if !ok {
			return nil
		}
		out = &limitOp{child: c, n: o.n}
	case *unwindOp:
		c, ok := child(o.child)
		if !ok {
			return nil
		}
		out = &unwindOp{child: c, list: o.list, slot: o.slot, width: o.width}
	case *appendKeysOp:
		c, ok := child(o.child)
		if !ok {
			return nil
		}
		out = &appendKeysOp{child: c, keys: o.keys, visible: o.visible}
	case *condTraverseOp:
		c, ok := child(o.child)
		if !ok {
			return nil
		}
		out = cloneCondTraverse(o, c)
	case *expandIntoOp:
		c, ok := child(o.child)
		if !ok {
			return nil
		}
		out = &expandIntoOp{child: c, srcSlot: o.srcSlot, dstSlot: o.dstSlot, edgeSlot: o.edgeSlot,
			width: o.width, batch: o.batch, ae: o.ae, typeIDs: o.typeIDs, direction: o.direction,
			kthreads: o.kthreads}
	case *varLenTraverseOp:
		c, ok := child(o.child)
		if !ok {
			return nil
		}
		out = &varLenTraverseOp{child: c, srcSlot: o.srcSlot, dstSlot: o.dstSlot, width: o.width,
			ae: o.ae, minHops: o.minHops, maxHops: o.maxHops, dstLabel: o.dstLabel, dstAE: o.dstAE,
			kthreads: o.kthreads}
	case *traverseCountOp:
		t := cloneOpTree(o.t, memo)
		if t == nil {
			return nil
		}
		out = &traverseCountOp{t: t.(*condTraverseOp)}
	case *varLenCountOp:
		t := cloneOpTree(o.t, memo)
		if t == nil {
			return nil
		}
		out = &varLenCountOp{t: t.(*varLenTraverseOp)}
	case *createOp:
		c, ok := child(o.child)
		if !ok {
			return nil
		}
		out = &createOp{child: c, patterns: o.patterns, width: o.width}
	case *deleteOp:
		c, ok := child(o.child)
		if !ok {
			return nil
		}
		out = &deleteOp{child: c, exprs: o.exprs, detach: o.detach}
	case *setOp:
		c, ok := child(o.child)
		if !ok {
			return nil
		}
		out = &setOp{child: c, items: o.items}
	case *joinOp:
		probe, ok := child(o.probe)
		if !ok {
			return nil
		}
		build, ok := child(o.build)
		if !ok {
			return nil
		}
		out = &joinOp{probe: probe, build: build, probeKey: o.probeKey, buildKey: o.buildKey,
			buildSlots: o.buildSlots, width: o.width, desc: o.desc, buildEst: o.buildEst}
	case *scalarAdapter:
		m, ok := o.inner.(*mergeOp)
		if !ok {
			return nil
		}
		mp, ok := child(m.matchPlan)
		if !ok {
			return nil
		}
		out = adaptScalar(&mergeOp{matchPlan: mp, pattern: m.pattern, width: m.width})
	default:
		return nil
	}
	memo[op] = out
	return out
}

// cloneCondTraverse duplicates a conditional traversal's planned state onto
// a fresh child (the epoch-keyed mask memo, record arena and frontier
// buffers restart empty).
func cloneCondTraverse(o *condTraverseOp, c operation) *condTraverseOp {
	return &condTraverseOp{child: c, srcSlot: o.srcSlot, dstSlot: o.dstSlot, edgeSlot: o.edgeSlot,
		width: o.width, batch: o.batch, ae: o.ae, masks: o.masks, typeIDs: o.typeIDs,
		direction: o.direction, optional: o.optional, kthreads: o.kthreads}
}
