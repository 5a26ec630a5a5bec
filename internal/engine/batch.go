package engine

import (
	"fmt"
	"math"
	"runtime"
	"sync"
	"sync/atomic"
	"time"

	"lightpath/internal/core"
)

// Request is one point-to-point routing request in a batch.
type Request struct {
	From int
	To   int
}

// BatchResult pairs a request with its answer: Err, or else Cost and —
// from RouteBatch always, from BatchCosts only where a search ran — the
// Result carrying the path.
type BatchResult struct {
	Request
	Result *core.Result
	Cost   float64
	Err    error
	text   *rowText // the text of the rendered row that answered, else nil
}

// AppendCost appends r.Cost as AppendCost renders it: copied off the
// cost row's text when a rendered row answered r, formatted otherwise.
func (r *BatchResult) AppendCost(buf []byte) []byte {
	if r.text != nil {
		return append(buf, r.text.entry(r.To)...)
	}
	return AppendCost(buf, r.Cost)
}

// RouteBatch answers every request against this one snapshot. All
// answers therefore observe the same epoch, even if mutators publish
// newer snapshots mid-batch.
//
// Each request is answered the cheapest way its source allows, priced in
// queue scans (core.Aux.TreePays): when the batch names the source at
// least TreePays times — twice under plain, about k times under
// astar, whose point query is that much cheaper than the single-source
// pass — through one tree built for the batch, read by all of the
// source's requests and dropped; else by a point query, which stops at
// the destination and builds nothing. Every way returns the same cost bit
// for bit; engine_batch_tree_requests_total and
// engine_batch_point_requests_total count how the requests split.
//
// The work runs on a pool of worker goroutines (the AllPairsParallel
// fan-out shape: shared atomic cursor, no per-item goroutine), one item
// per tree and one per point query, so no two workers build one tree.
// workers ≤ 0 selects GOMAXPROCS.
func (s *Snapshot) RouteBatch(reqs []Request, workers int) []BatchResult {
	return s.batch(reqs, workers, true)
}

// BatchCosts is RouteBatch for a caller that reads costs, not paths: a
// request whose source has a resident cost row is answered from it
// before anything else is tried (engine_batch_row_requests_total), one
// read off a tree extracts no path, and a blocked one carries the bare
// core.ErrNoRoute. A batch never stores a row — CostsFrom does.
func (s *Snapshot) BatchCosts(reqs []Request, workers int) []BatchResult {
	return s.batch(reqs, workers, false)
}

// batch is the one dispatch behind RouteBatch (paths true) and
// BatchCosts.
func (s *Snapshot) batch(reqs []Request, workers int, paths bool) []BatchResult {
	n := len(reqs)
	out := make([]BatchResult, n)
	if n == 0 {
		return out
	}
	m := s.eng.metrics
	m.batchRequests.Add(uint64(n))
	batchStart := time.Now()
	defer func() { m.batchLatency.ObserveDuration(time.Since(batchStart)) }()

	// Pre-pass: a resident row answers here, so a batch nothing has to be
	// searched for starts no goroutine and counts no sources.
	var rest []int // indices of the requests still unanswered
	for i, req := range reqs {
		out[i].Request = req
		if paths || !s.answerRow(&out[i]) {
			rest = append(rest, i)
		}
	}
	if len(rest) > 0 {
		s.search(out, rest, workers, paths)
	}
	return out
}

// search answers out[i] for every i in rest — what the pre-pass found
// no row for — on a pool of worker goroutines.
func (s *Snapshot) search(out []BatchResult, rest []int, workers int, paths bool) {
	// Telemetry: the in-flight gauge is the batch queue depth — it rises
	// by what there is to search for and drains as workers finish items,
	// so a registry snapshot taken mid-batch shows the backlog.
	m := s.eng.metrics
	m.batchInFlight.Add(int64(len(rest)))
	perSource := make(map[int][]int, len(rest))
	for _, i := range rest {
		perSource[out[i].From] = append(perSource[out[i].From], i)
	}
	// One work item per source that pays for a tree — all of its requests,
	// carried by the first — and one per remaining request, in request
	// order.
	pays := s.aux.TreePays(s.ropts.Directed)
	items := make([][]int, 0, len(rest))
	for j, i := range rest {
		switch own := perSource[out[i].From]; {
		case len(own) < pays:
			items = append(items, rest[j:j+1])
		case own[0] == i:
			items = append(items, own)
		}
	}

	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	if workers > len(items) {
		workers = len(items)
	}
	var (
		wg     sync.WaitGroup
		cursor atomic.Int64
	)
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				j := int(cursor.Add(1)) - 1
				if j >= len(items) {
					return
				}
				item := items[j]
				if len(item) >= pays {
					s.answerTree(out, item, paths)
					m.batchViaTree.Add(uint64(len(item)))
				} else {
					r := &out[item[0]]
					if r.Result, r.Err = s.Route(r.From, r.To); r.Err == nil {
						r.Cost = r.Result.Cost
					}
					m.batchViaPoint.Inc()
				}
				m.batchInFlight.Add(-int64(len(item)))
			}
		}()
	}
	wg.Wait()
}

// answerRow fills r from its source's cost row if one is resident at
// this epoch, and reports whether it was; r carries the row's text if a
// CostsFrom has rendered it, and a batch never renders one. An absent
// row is neither counted nor built, and a destination out of range is
// left to the search, whose error names it.
func (s *Snapshot) answerRow(r *BatchResult) bool {
	e := s.eng
	if e.costs == nil || !s.inRange(r.To) {
		return false
	}
	row, ok := e.costs.getResident(epochKey{node: r.From, epoch: s.epoch})
	if ok {
		r.setCost(row.cost[r.To])
		r.text = row.text.Load()
		e.metrics.batchViaRow.Inc()
	}
	return ok
}

// answerTree fills out[i] for every i in item — requests sharing one
// source — off one pass run for them and dropped after: a SourceTree
// when the batch owes paths, else only the pass's cost row.
func (s *Snapshot) answerTree(out []BatchResult, item []int, paths bool) {
	src := out[item[0]].From
	if paths {
		st, err := s.RouteFrom(src)
		for _, i := range item {
			r := &out[i]
			if err != nil {
				r.Err = err
				continue
			}
			if r.Result, r.Err = viaTree(st, r.From, r.To); r.Err == nil {
				r.Cost = r.Result.Cost
			}
		}
		return
	}
	sp, start := s.startFrom(nil)
	cost, err := s.passCosts(src, sp)
	s.endFrom(sp, start)
	for _, i := range item {
		switch r := &out[i]; {
		case err != nil:
			r.Err = err
		case s.inRange(r.To):
			r.setCost(cost[r.To])
		default:
			r.Err = fmt.Errorf("%w: dest %d", core.ErrNodeRange, r.To) // as SourceTree.PathTo words it
		}
	}
}

func (s *Snapshot) inRange(node int) bool { return node >= 0 && node < s.net.NumNodes() }

// setCost records an optimal cost read off a row or tree: +Inf is the
// blocked verdict.
func (r *BatchResult) setCost(c float64) {
	if math.IsInf(c, 1) {
		r.Err = core.ErrNoRoute
		return
	}
	r.Cost = c
}
