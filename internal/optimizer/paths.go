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
	var ordered []ordering
	for _, col := range schema.Ordered {
		ordered = append(ordered, ordering{col: expr.ColumnRef{Table: tName, Column: col}})
	}

	own := p.a.within(bit)
	seq := &engine.SeqScan{Table: tName, Filter: p.a.pred(own), Partitions: p.scanParts(i)}
	cands := []candidate{{
		node:    seq,
		cost:    pages*m.SeqPage + rows*m.Tuple,
		rows:    outRows,
		ordered: ordered,
	}}
	p.record(seq, outRows, bit)

	// Single-index range scans.
	sargs := sargableRanges(p.a, schema, i)
	for _, s := range sargs {
		marg, err := p.selOf(bit, s.consumed)
		if err != nil {
			return nil, err
		}
		entries := rows * marg
		node := &engine.IndexRangeScan{
			Table:      tName,
			Range:      s.rng,
			Residual:   p.a.pred(own &^ s.consumed),
			Partitions: p.scanParts(i),
		}
		cands = append(cands, candidate{
			node:    node,
			cost:    m.IndexSeek + entries*(m.IndexEntry+m.RandPage+m.Tuple),
			rows:    outRows,
			ordered: ordered, // RID-ordered fetch preserves heap order
		})
		p.record(node, outRows, bit)
	}

	// Index intersection over all sargable columns.
	if len(sargs) >= 2 {
		var ranges []engine.KeyRange
		var consumed uint64
		costSum := 0.0
		for _, s := range sargs {
			marg, err := p.selOf(bit, s.consumed)
			if err != nil {
				return nil, err
			}
			entries := rows * marg
			costSum += m.IndexSeek + entries*(m.IndexEntry+m.Tuple)
			ranges = append(ranges, s.rng)
			consumed |= s.consumed
		}
		// The joint selectivity of the intersected conditions — the
		// estimate on which the paper's whole argument turns.
		joint, err := p.selOf(bit, consumed)
		if err != nil {
			return nil, err
		}
		costSum += rows * joint * (m.RandPage + m.Tuple)
		node := &engine.IndexIntersect{
			Table:      tName,
			Ranges:     ranges,
			Residual:   p.a.pred(own &^ consumed),
			Partitions: p.scanParts(i),
		}
		cands = append(cands, candidate{
			node:    node,
			cost:    costSum,
			rows:    outRows,
			ordered: ordered,
		})
		p.record(node, outRows, bit)
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
	nonCross := p.a.within(rest) | p.a.within(bit)
	crossPred := p.a.pred(p.a.within(mask) &^ nonCross)
	withCross := func(node engine.Node, joinOut float64, base float64) (engine.Node, float64) {
		if crossPred == nil {
			p.record(node, outRows, mask)
			return node, base
		}
		p.record(node, joinOut, mask)
		f := &engine.Filter{Input: node, Pred: crossPred}
		p.record(f, outRows, mask)
		return f, base + joinOut*m.Tuple
	}
	// Indexed nested loops probe table i with its own conjuncts.
	residual := p.a.pred(p.a.within(bit))

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
			if jo, err := p.estOf(mask, nonCross); err == nil {
				joinOut = jo.rows
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
				// The merge sorts both inputs on the key, whatever their
				// declarations say, so its rows come out ordered by it.
				out = append(out, candidate{node: n2, cost: c2, rows: outRows, ordered: []ordering{{restRef, true}, {iRef, true}}})
			}

			// Indexed nested loops with i as the inner relation.
			iName := p.a.tables[i]
			iSchema, _ := p.opt.Ctx.DB.Catalog.Table(iName)
			iRowsF, _, err := p.tableRowsPages(i)
			if err != nil {
				return nil, err
			}
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
			margSel, err := p.selOf(fBit|dBit, p.a.within(dBit))
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
		// estimate where AVI and sampling part ways. The dims are every
		// other table of mask.
		var dimConjs uint64
		for _, d := range dims {
			dimConjs |= p.a.within(1 << uint(d.idx))
		}
		joint, err := p.selOf(mask, dimConjs)
		if err != nil {
			return nil, err
		}
		totalCost += factRows * joint * (m.RandPage + m.Tuple)
		outRows, err := p.rowsOf(mask)
		if err != nil {
			return nil, err
		}
		var ordered []ordering
		for _, col := range fSchema.Ordered {
			ordered = append(ordered, ordering{col: expr.ColumnRef{Table: p.a.tables[f], Column: col}})
		}
		// Residual: fact-local conjuncts and any cross-table conjuncts.
		node := &engine.StarSemiJoin{
			Fact:     p.a.tables[f],
			Dims:     starDims,
			Residual: p.a.pred(p.a.within(mask) &^ dimConjs),
		}
		cands = append(cands, candidate{
			node:    node,
			cost:    totalCost,
			rows:    outRows,
			ordered: ordered,
		})
		p.record(node, outRows, mask)
	}
	return cands, nil
}
