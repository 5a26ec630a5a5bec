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
// Requests sharing a source are answered from one SourceTree via the
// engine's LRU cache, and so is a unique source whose tree is already
// resident at this epoch; other unique sources fall back to targeted
// Route calls, which stop at the destination instead of exhausting the
// graph.
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

	// Sources appearing more than once amortize a full single-source
	// pass (and seed the cache for future batches at this epoch).
	perSource := make(map[int]int, n)
	for _, r := range reqs {
		perSource[r.From]++
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
				i := int(cursor.Add(1)) - 1
				if i >= n {
					return
				}
				req := reqs[i]
				var (
					res *core.Result
					err error
				)
				if perSource[req.From] > 1 {
					res, err = s.RouteVia(req.From, req.To)
				} else if st, ok := s.residentTree(req.From); ok {
					res, err = viaTree(st, req.From, req.To)
				} else {
					res, err = s.Route(req.From, req.To)
				}
				out[i] = BatchResult{Request: req, Result: res, Err: err}
				m.batchInFlight.Add(-1)
			}
		}()
	}
	wg.Wait()
	return out
}
