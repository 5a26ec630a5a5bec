package obs

import (
	"bytes"
	"encoding/json"
	"strconv"
	"sync"
	"sync/atomic"
	"testing"
	"time"
)

// TestTracerConcurrentRecordAndRead hammers the flight recorder from
// writer goroutines (Start/child spans/Finish) while reader goroutines
// continuously snapshot Recent/Slow/Find and encode what they see —
// the exact interleaving the debug endpoints produce under live
// traffic. Run under -race this pins the slot ring's publication
// safety; the final quiescent checks pin exactness.
func TestTracerConcurrentRecordAndRead(t *testing.T) {
	const (
		writers   = 8
		perWriter = 200
		readers   = 4
		ringSize  = 64
	)
	tr := NewTracer(&TracerOptions{RingSize: ringSize, SlowThreshold: -1})
	stop := make(chan struct{})
	var readerWG sync.WaitGroup
	for i := 0; i < readers; i++ {
		readerWG.Add(1)
		go func() {
			defer readerWG.Done()
			for {
				select {
				case <-stop:
					return
				default:
				}
				for _, r := range tr.Recent(ringSize) {
					// Every published trace must be complete and encodable.
					if r.Root() == nil || r.DurationNs < 0 {
						t.Error("reader observed an unfinished trace")
						return
					}
					var buf bytes.Buffer
					if err := EncodeReqTrace(&buf, r); err != nil {
						t.Errorf("encode of live trace failed: %v", err)
						return
					}
					tr.Find(r.ID)
				}
				tr.Slow(ringSize)
			}
		}()
	}

	var writerWG sync.WaitGroup
	for i := 0; i < writers; i++ {
		writerWG.Add(1)
		go func() {
			defer writerWG.Done()
			for j := 0; j < perWriter; j++ {
				req := tr.Start("request")
				sp := req.Root().StartChild("work")
				sp.SetInt("iter", int64(j))
				sp.End()
				tr.Finish(req)
			}
		}()
	}
	writerWG.Wait()
	close(stop)
	readerWG.Wait()

	// Quiescent exactness: every slot holds a distinct completed trace.
	if got := tr.Recorded(); got != writers*perWriter {
		t.Errorf("recorded = %d, want %d", got, writers*perWriter)
	}
	recent := tr.Recent(ringSize)
	if len(recent) != ringSize {
		t.Fatalf("recorder retains %d traces, want %d", len(recent), ringSize)
	}
	seen := make(map[uint64]bool, ringSize)
	for _, r := range recent {
		if seen[r.ID] {
			t.Errorf("trace %d retained twice", r.ID)
		}
		seen[r.ID] = true
		if r.Duration() < 0 || r.Span("work") == nil {
			t.Errorf("trace %d incomplete at quiescence", r.ID)
		}
	}
}

// TestTracerConcurrentReconfigure flips enabled/sample/threshold while
// traffic records — the wdmserve admin path against live load.
func TestTracerConcurrentReconfigure(t *testing.T) {
	tr := NewTracer(nil)
	stop := make(chan struct{})
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		for i := 0; ; i++ {
			select {
			case <-stop:
				return
			default:
			}
			tr.SetEnabled(i%2 == 0)
			tr.SetSample(1 + i%4)
			tr.SetSlowThreshold(time.Duration(i%3-1) * time.Millisecond)
		}
	}()
	for i := 0; i < 2000; i++ {
		tr.Finish(tr.Start("request"))
	}
	close(stop)
	wg.Wait()
}

// selfDescribingTrace records one trace whose every attribute names the
// trace it belongs to: root and children carry the ID as an integer and,
// through the arena, as text, and the root states the span count.
func selfDescribingTrace(tr *Tracer) {
	req := tr.Start("request")
	id := int64(req.ID)
	children := int(id % 5)
	root := req.Root()
	root.SetInt("id", id)
	root.SetInt("spans", int64(children+1))
	tag := strconv.AppendInt(nil, id, 10)
	for c := 0; c < children; c++ {
		sp := root.StartChild("work")
		sp.SetInt("id", id)
		sp.SetBytes("tag", tag)
		sp.End()
	}
	root.SetBytes("tag", tag)
	tr.Finish(req)
}

// checkSelfDescribing fails if r mixes two traces: an attribute naming
// another ID, or a span count other than the one its root recorded.
func checkSelfDescribing(t *testing.T, r *ReqTrace) {
	t.Helper()
	want, _ := r.Root().Attr("spans")
	if int(want.Int()) != len(r.Spans()) {
		t.Errorf("trace %d has %d spans, its root recorded %d", r.ID, len(r.Spans()), want.Int())
	}
	spans := r.Spans()
	for i := range spans {
		id, okID := spans[i].Attr("id")
		tag, okTag := spans[i].Attr("tag")
		if !okID || !okTag || uint64(id.Int()) != r.ID || tag.Str != strconv.FormatUint(r.ID, 10) {
			t.Errorf("trace %d span %d carries id %d (%v) and tag %q (%v)", r.ID, i, id.Int(), okID, tag.Str, okTag)
		}
	}
	if want := 2*len(spans) + 1; len(r.attrs) != want {
		t.Errorf("trace %d carries %d attributes over %d spans, want %d", r.ID, len(r.attrs), len(spans), want)
	}
}

// TestRingCopiesAreConsistentAndIsolated is the by-value ring's contract
// under contention: with four slots and four writers every slot is
// rewritten in place constantly, and whatever a reader copies out —
// through Recent, Slow, Find or the JSON writer — is one whole trace;
// and a copy, once out, never changes however often its slot is reused.
func TestRingCopiesAreConsistentAndIsolated(t *testing.T) {
	const (
		writers    = 4
		readers    = 2
		readRounds = 150 // fixed reader work: a 1-CPU box may not interleave a flag loop
	)
	tr := NewTracer(&TracerOptions{RingSize: 4, SlowRingSize: 4})
	tr.SetSlowThreshold(0) // every trace is slow too: both rings churn
	var readersDone atomic.Bool
	var writerWG, readerWG sync.WaitGroup
	for w := 0; w < writers; w++ {
		writerWG.Add(1)
		go func() {
			defer writerWG.Done()
			for n := 0; n < 200 || !readersDone.Load(); n++ {
				selfDescribingTrace(tr)
			}
		}()
	}
	for i := 0; i < readers; i++ {
		readerWG.Add(1)
		go func() {
			defer readerWG.Done()
			for round := 0; round < readRounds; round++ {
				recent := tr.Recent(4)
				for _, r := range append(recent, tr.Slow(4)...) {
					checkSelfDescribing(t, r)
					if found := tr.Find(r.ID); found != nil {
						checkSelfDescribing(t, found)
					}
				}
				var buf bytes.Buffer
				if err := WriteTraces(&buf, recent); err != nil {
					t.Errorf("WriteTraces: %v", err)
					return
				}
				var docs []json.RawMessage
				if err := json.Unmarshal(buf.Bytes(), &docs); err != nil {
					t.Errorf("WriteTraces output is not a JSON array: %v", err)
					return
				}
				for _, doc := range docs {
					dec, err := DecodeReqTrace(doc)
					if err != nil {
						t.Errorf("decode of a written trace: %v", err)
						return
					}
					checkSelfDescribing(t, dec)
				}
			}
		}()
	}
	readerWG.Wait()
	readersDone.Store(true)
	writerWG.Wait()

	// Copy-out isolation: what Recent returned is unchanged after the
	// ring has wrapped a hundred times over the slots it was copied from.
	held := tr.Recent(4)
	if len(held) != 4 {
		t.Fatalf("Recent(4) returned %d traces from a full ring", len(held))
	}
	var before [4]bytes.Buffer
	for i, r := range held {
		if err := EncodeReqTrace(&before[i], r); err != nil {
			t.Fatal(err)
		}
	}
	for i := 0; i < 100*4; i++ {
		selfDescribingTrace(tr)
	}
	for i, r := range held {
		var after bytes.Buffer
		if err := EncodeReqTrace(&after, r); err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(before[i].Bytes(), after.Bytes()) {
			t.Errorf("held copy %d changed while its slot was reused:\n%s\nvs\n%s", i, before[i].Bytes(), after.Bytes())
		}
		if r.ID == tr.Recent(1)[0].ID {
			t.Errorf("the ring did not move past held trace %d", r.ID)
		}
	}
}
