package optimizer

import (
	"robustqo/internal/cost"
	"robustqo/internal/engine"
	"robustqo/internal/expr"
)

// accessPaths enumerates the physical alternatives for scanning one table
// with its single-table predicate: the sequential scan, a single-index
// range scan per sargable condition, and the index-intersection plan when
// several conditions are sargable.
func (p *planner) accessPaths(i int) ([]candidate, error) {
	tName := p.a.tables[i]
	schema, _ := p.opt.Ctx.DB.Catalog.Table(tName)
	m := p.opt.Ctx.Model
	// Physical stats after partition pruning: the scan only touches the
	// surviving shards' rows and pages, and is costed accordingly.
	rows, pages, err := p.prunedRowsPages(i)
	if err != nil {
		return nil, err
	}
	bit := uint32(1) << uint(i)

	outRows, err := p.rowsOf(bit)
	if err != nil {
		return nil, err
	}

	// Physical ordering of the heap: declared Ordered columns plus the
	// primary key when rows were appended in key order (we only trust the
	// declaration).
	var ordered []expr.ColumnRef
	for _, col := range schema.Ordered {
		ordered = append(ordered, expr.ColumnRef{Table: tName, Column: col})
	}

	fullPred := p.a.predOnly(i)
	seq := &engine.SeqScan{Table: tName, Filter: fullPred, Partitions: p.scanParts(i)}
	cands := []candidate{{
		node:    seq,
		cost:    pages*m.SeqPage + rows*m.Tuple,
		rows:    outRows,
		ordered: ordered,
	}}
	p.recordScan(cands[0].node, outRows, i)

	// Collect sargable ranges per indexed column, remembering which
	// conjuncts each range consumed.
	byColumn, colOrder := sargableRanges(p.a, schema, i)

	residualExcept := func(consumed map[int]bool) expr.Expr {
		var terms []expr.Expr
		for ci, c := range p.a.conjuncts {
			if c.mask == bit && !consumed[ci] {
				terms = append(terms, c.pred)
			}
		}
		return expr.Conj(terms...)
	}
	conjOf := func(idxs []int) expr.Expr {
		var terms []expr.Expr
		for _, ci := range idxs {
			terms = append(terms, p.a.conjuncts[ci].pred)
		}
		return expr.Conj(terms...)
	}

	// Single-index range scans.
	for _, col := range colOrder {
		s := byColumn[col]
		marg, err := p.selOf(bit, conjOf(s.consumed))
		if err != nil {
			return nil, err
		}
		entries := rows * marg
		consumed := make(map[int]bool, len(s.consumed))
		for _, ci := range s.consumed {
			consumed[ci] = true
		}
		cands = append(cands, candidate{
			node: &engine.IndexRangeScan{
				Table:      tName,
				Range:      s.rng,
				Residual:   residualExcept(consumed),
				Partitions: p.scanParts(i),
			},
			cost:    m.IndexSeek + entries*(m.IndexEntry+m.RandPage+m.Tuple),
			rows:    outRows,
			ordered: ordered, // RID-ordered fetch preserves heap order
		})
		p.recordScan(cands[len(cands)-1].node, outRows, i)
	}

	// Index intersection over all sargable columns.
	if len(colOrder) >= 2 {
		var ranges []engine.KeyRange
		var allConsumed []int
		consumed := make(map[int]bool)
		costSum := 0.0
		for _, col := range colOrder {
			s := byColumn[col]
			marg, err := p.selOf(bit, conjOf(s.consumed))
			if err != nil {
				return nil, err
			}
			entries := rows * marg
			costSum += m.IndexSeek + entries*(m.IndexEntry+m.Tuple)
			ranges = append(ranges, s.rng)
			allConsumed = append(allConsumed, s.consumed...)
			for _, ci := range s.consumed {
				consumed[ci] = true
			}
		}
		// The joint selectivity of the intersected conditions — the
		// estimate on which the paper's whole argument turns.
		joint, err := p.selOf(bit, conjOf(allConsumed))
		if err != nil {
			return nil, err
		}
		costSum += rows * joint * (m.RandPage + m.Tuple)
		cands = append(cands, candidate{
			node: &engine.IndexIntersect{
				Table:      tName,
				Ranges:     ranges,
				Residual:   residualExcept(consumed),
				Partitions: p.scanParts(i),
			},
			cost:    costSum,
			rows:    outRows,
			ordered: ordered,
		})
		p.recordScan(cands[len(cands)-1].node, outRows, i)
	}
	return cands, nil
}

// joinCandidates builds the plans joining best[rest] with table i along
// every connecting foreign-key edge: hash join (both orientations), merge
// join, and indexed nested loops with table i as the inner.
func (p *planner) joinCandidates(rest uint32, i int, best map[uint32][]candidate) ([]candidate, error) {
	m := p.opt.Ctx.Model
	bit := uint32(1) << uint(i)
	mask := rest | bit
	outRows, err := p.rowsOf(mask)
	if err != nil {
		return nil, err
	}
	// Conjuncts that span both sides become a post-join filter.
	var crossTerms []expr.Expr
	for _, c := range p.a.conjuncts {
		if c.mask&rest != 0 && c.mask&bit != 0 && c.mask&^mask == 0 {
			crossTerms = append(crossTerms, c.pred)
		}
	}
	crossPred := expr.Conj(crossTerms...)
	withCross := func(node engine.Node, joinOut float64, base float64) (engine.Node, float64) {
		if crossPred == nil {
			p.recordMask(node, outRows, mask)
			return node, base
		}
		p.recordMask(node, joinOut, mask)
		f := &engine.Filter{Input: node, Pred: crossPred}
		p.recordMask(f, outRows, mask)
		return f, base + joinOut*m.Tuple
	}

	var out []candidate
	for _, e := range p.a.edges {
		cb := uint32(1) << uint(e.child)
		pb := uint32(1) << uint(e.parent)
		if mask&cb == 0 || mask&pb == 0 {
			continue
		}
		iIsChild := e.child == i && rest&pb != 0
		iIsParent := e.parent == i && rest&cb != 0
		if !iIsChild && !iIsParent {
			continue
		}
		childRef := expr.ColumnRef{Table: p.a.tables[e.child], Column: e.fkCol}
		parentRef := expr.ColumnRef{Table: p.a.tables[e.parent], Column: e.pkCol}
		restRef, iRef := parentRef, childRef
		if iIsParent {
			restRef, iRef = childRef, parentRef
		}
		// joinOut before cross-side filters: approximate with outRows when
		// no cross terms exist, otherwise re-estimate without them.
		joinOut := outRows
		if crossPred != nil {
			var nonCross []expr.Expr
			for _, c := range p.a.conjuncts {
				if c.mask != 0 && c.mask&^mask == 0 && !(c.mask&rest != 0 && c.mask&bit != 0) {
					nonCross = append(nonCross, c.pred)
				}
			}
			if jo, err := p.estOf(mask, expr.Conj(nonCross...)); err == nil {
				if jo.hasRows {
					joinOut = jo.rows
				} else {
					root, rootErr := p.opt.Ctx.DB.Catalog.RootOf(p.a.tablesOf(mask))
					if rootErr == nil {
						if rt, ok := p.opt.Ctx.DB.Table(root); ok {
							joinOut = jo.sel * float64(rt.NumRows())
						}
					}
				}
			}
		}

		for _, cr := range best[rest] {
			for _, ct := range best[bit] {
				// Hash join, both build orientations.
				for _, orient := range []struct {
					build, probe       candidate
					buildCol, probeCol expr.ColumnRef
				}{
					{cr, ct, restRef, iRef},
					{ct, cr, iRef, restRef},
				} {
					node := &engine.HashJoin{
						Build:    orient.build.node,
						Probe:    orient.probe.node,
						BuildCol: orient.buildCol,
						ProbeCol: orient.probeCol,
						// The same posterior T-quantile row estimate that
						// priced the build pre-sizes its hash table at run
						// time.
						BuildRowsEst: orient.build.rows,
					}
					c := orient.build.cost + orient.probe.cost +
						orient.build.rows*m.HashBuild + orient.probe.rows*m.HashProbe +
						joinOut*m.Tuple
					n2, c2 := withCross(node, joinOut, c)
					out = append(out, candidate{node: n2, cost: c2, rows: outRows, ordered: orient.probe.ordered})
				}
				// Merge join.
				lSorted := cr.orderedBy(restRef)
				rSorted := ct.orderedBy(iRef)
				mjCost := cr.cost + ct.cost + (cr.rows+ct.rows)*m.Tuple + joinOut*m.Tuple
				if !lSorted {
					mjCost += cr.rows * m.SortTuple
				}
				if !rSorted {
					mjCost += ct.rows * m.SortTuple
				}
				mj := &engine.MergeJoin{
					Left: cr.node, Right: ct.node,
					LeftCol: restRef, RightCol: iRef,
					LeftSorted: lSorted, RightSorted: rSorted,
				}
				n2, c2 := withCross(mj, joinOut, mjCost)
				out = append(out, candidate{node: n2, cost: c2, rows: outRows, ordered: []expr.ColumnRef{restRef, iRef}})
			}

			// Indexed nested loops with i as the inner relation.
			iName := p.a.tables[i]
			iSchema, _ := p.opt.Ctx.DB.Catalog.Table(iName)
			iRowsF, _, err := p.tableRowsPages(i)
			if err != nil {
				return nil, err
			}
			residual := p.a.predOnly(i)
			if iIsParent {
				// Probe i's primary key: one clustered lookup per outer row.
				node := &engine.INLJoin{
					Outer:      cr.node,
					OuterCol:   restRef,
					InnerTable: iName,
					InnerCol:   e.pkCol,
					Residual:   residual,
				}
				c := cr.cost + cr.rows*(m.RandPage+m.Tuple) + joinOut*m.Tuple
				n2, c2 := withCross(node, joinOut, c)
				out = append(out, candidate{node: n2, cost: c2, rows: outRows, ordered: cr.ordered})
			} else if _, hasIx := iSchema.IndexOn(e.fkCol); hasIx {
				// Probe i's secondary foreign-key index.
				parentRows, _, err := p.tableRowsPages(e.parent)
				if err != nil {
					return nil, err
				}
				fanout := 1.0
				if parentRows > 0 {
					fanout = iRowsF / parentRows
				}
				matches := cr.rows * fanout
				node := &engine.INLJoin{
					Outer:      cr.node,
					OuterCol:   restRef,
					InnerTable: iName,
					InnerCol:   e.fkCol,
					Residual:   residual,
				}
				c := cr.cost + cr.rows*m.IndexSeek + matches*(m.IndexEntry+m.RandPage+m.Tuple) + joinOut*m.Tuple
				n2, c2 := withCross(node, joinOut, c)
				out = append(out, candidate{node: n2, cost: c2, rows: outRows, ordered: cr.ordered})
			}
		}
	}
	return out, nil
}

// starCandidates builds semijoin-intersection plans for subsets shaped as
// a star: one fact table directly referencing every other table in the
// subset through an indexed foreign key (Experiment 3's "sophisticated
// execution strategy involving semijoins").
func (p *planner) starCandidates(mask uint32, best map[uint32][]candidate) ([]candidate, error) {
	m := p.opt.Ctx.Model
	// Identify the fact: the unique table in mask that is a child on every
	// edge to the other masked tables.
	type dimInfo struct {
		idx   int
		fkCol string
		pkCol string
	}
	var cands []candidate
	for f := range p.a.tables {
		fBit := uint32(1) << uint(f)
		if mask&fBit == 0 {
			continue
		}
		fSchema, _ := p.opt.Ctx.DB.Catalog.Table(p.a.tables[f])
		var dims []dimInfo
		ok := true
		for d := range p.a.tables {
			dBit := uint32(1) << uint(d)
			if d == f || mask&dBit == 0 {
				continue
			}
			var edge *joinEdge
			for k := range p.a.edges {
				e := &p.a.edges[k]
				if e.child == f && e.parent == d {
					edge = e
					break
				}
			}
			if edge == nil {
				ok = false
				break
			}
			if _, hasIx := fSchema.IndexOn(edge.fkCol); !hasIx {
				ok = false
				break
			}
			dims = append(dims, dimInfo{idx: d, fkCol: edge.fkCol, pkCol: edge.pkCol})
		}
		if !ok || len(dims) == 0 {
			continue
		}
		factRows, _, err := p.tableRowsPages(f)
		if err != nil {
			return nil, err
		}
		totalCost := 0.0
		var starDims []engine.StarDim
		for _, d := range dims {
			dBit := uint32(1) << uint(d.idx)
			dimCands := best[dBit]
			if len(dimCands) == 0 {
				ok = false
				break
			}
			dc := dimCands[0]
			for _, c := range dimCands[1:] {
				if cost.Less(c.cost, dc.cost) {
					dc = c
				}
			}
			selDimRows, err := p.rowsOf(dBit)
			if err != nil {
				return nil, err
			}
			// Fraction of fact rows semijoining the selected dim rows.
			margSel, err := p.selOf(fBit|dBit, p.a.predOnly(d.idx))
			if err != nil {
				return nil, err
			}
			entries := factRows * margSel
			totalCost += dc.cost + selDimRows*m.IndexSeek + entries*(m.IndexEntry+m.Tuple)
			starDims = append(starDims, engine.StarDim{
				Scan:   dc.node,
				DimPK:  expr.ColumnRef{Table: p.a.tables[d.idx], Column: d.pkCol},
				FactFK: d.fkCol,
			})
		}
		if !ok {
			continue
		}
		// Joint fraction of fact rows surviving all dim semijoins — the
		// estimate where AVI and sampling part ways.
		var dimTerms []expr.Expr
		jointMask := fBit
		for _, d := range dims {
			jointMask |= 1 << uint(d.idx)
			if t := p.a.predOnly(d.idx); t != nil {
				dimTerms = append(dimTerms, t)
			}
		}
		joint, err := p.selOf(jointMask, expr.Conj(dimTerms...))
		if err != nil {
			return nil, err
		}
		totalCost += factRows * joint * (m.RandPage + m.Tuple)
		outRows, err := p.rowsOf(mask)
		if err != nil {
			return nil, err
		}
		// Residual: fact-local conjuncts and any cross-table conjuncts.
		var residualTerms []expr.Expr
		for _, c := range p.a.conjuncts {
			if c.mask == 0 || c.mask&^mask != 0 {
				continue
			}
			if c.mask&fBit != 0 || popcount(c.mask) > 1 {
				residualTerms = append(residualTerms, c.pred)
			}
		}
		var ordered []expr.ColumnRef
		for _, col := range fSchema.Ordered {
			ordered = append(ordered, expr.ColumnRef{Table: p.a.tables[f], Column: col})
		}
		cands = append(cands, candidate{
			node: &engine.StarSemiJoin{
				Fact:     p.a.tables[f],
				Dims:     starDims,
				Residual: expr.Conj(residualTerms...),
			},
			cost:    totalCost,
			rows:    outRows,
			ordered: ordered,
		})
		p.recordMask(cands[len(cands)-1].node, outRows, mask)
	}
	return cands, nil
}
