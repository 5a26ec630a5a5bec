package engine

import (
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

// BatchResult pairs a request with its answer. Exactly one of Result
// and Err is non-nil.
type BatchResult struct {
	Request
	Result *core.Result
	Err    error
}

// RouteBatch answers every request against ONE pinned snapshot using a
// pool of worker goroutines (the AllPairsParallel fan-out shape: shared
// atomic cursor, no per-item goroutine). All answers therefore observe
// the same epoch, even if mutators publish newer snapshots mid-batch.
//
// Each request is answered the cheapest way its source allows, priced in
// queue scans (core.Aux.TreePays): from the source's SourceTree when the
// cache holds it at this epoch, whatever the source's multiplicity (a
// cache hit); else through a tree built once and cached, when the batch
// names the source at least TreePays times — twice under plain and bidi,
// about k times under astar, whose point query is that much cheaper than
// the single-source pass; else by a point query, which stops at the
// destination and builds nothing. With the cache disabled there is
// nowhere to keep a tree, so every request is a point query. All three
// ways return the same cost bit for bit; engine_batch_tree_requests_total
// and engine_batch_point_requests_total count how the requests split.
// workers ≤ 0 selects GOMAXPROCS.
func (e *Engine) RouteBatch(reqs []Request, workers int) []BatchResult {
	snap := e.Snapshot()
	return snap.RouteBatch(reqs, workers)
}

// RouteBatch is Engine.RouteBatch against this specific snapshot.
func (s *Snapshot) RouteBatch(reqs []Request, workers int) []BatchResult {
	n := len(reqs)
	out := make([]BatchResult, n)
	if n == 0 {
		return out
	}
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	if workers > n {
		workers = n
	}

	// Telemetry: the in-flight gauge is the batch queue depth — it rises
	// by the batch size up front and drains as workers finish items, so
	// a registry snapshot taken mid-batch shows the backlog.
	m := s.eng.metrics
	m.batchRequests.Add(uint64(n))
	m.batchInFlight.Add(int64(n))
	batchStart := time.Now()
	defer func() { m.batchLatency.ObserveDuration(time.Since(batchStart)) }()

	perSource := make(map[int]int, n)
	for _, r := range reqs {
		perSource[r.From]++
	}
	// A tree is built only where it can be kept — in the cache, for the
	// rest of this batch and for later readers of this epoch — and only
	// for a source with enough requests to amortise the pass.
	pays, kept := s.aux.TreePays(s.ropts.Directed), s.eng.cache != nil

	var (
		wg     sync.WaitGroup
		cursor atomic.Int64
	)
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				i := int(cursor.Add(1)) - 1
				if i >= n {
					return
				}
				req := reqs[i]
				var (
					res *core.Result
					err error
				)
				if st, ok := s.residentTree(req.From); ok {
					res, err = viaTree(st, req.From, req.To)
					m.batchViaTree.Inc()
				} else if kept && perSource[req.From] >= pays {
					res, err = s.RouteVia(req.From, req.To)
					m.batchViaTree.Inc()
				} else {
					res, err = s.Route(req.From, req.To)
					m.batchViaPoint.Inc()
				}
				out[i] = BatchResult{Request: req, Result: res, Err: err}
				m.batchInFlight.Add(-1)
			}
		}()
	}
	wg.Wait()
	return out
}
