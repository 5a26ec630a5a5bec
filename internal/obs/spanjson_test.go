package obs

import (
	"bytes"
	"math"
	"strings"
	"testing"
	"time"
)

// buildTrace assembles a deterministic trace with every attribute kind.
func buildTrace(t *testing.T) *ReqTrace {
	t.Helper()
	tr := NewTracer(&TracerOptions{SlowThreshold: -1})
	req := tr.Start("request")
	root := req.Root()
	root.SetStr("verb", "route")
	c := root.StartChild("child_one")
	c.SetInt("count", -7)
	c.SetBool("hit", false)
	c.SetFloat("cost", 2.5)
	c.End()
	g := c.StartChild("grandchild")
	g.SetInt("zero", 0)
	g.End()
	tr.Finish(req)
	return tr.Recent(1)[0]
}

func TestEncodeDecodeRoundTrip(t *testing.T) {
	req := buildTrace(t)
	var buf bytes.Buffer
	if err := EncodeReqTrace(&buf, req); err != nil {
		t.Fatal(err)
	}
	first := buf.String()
	if !strings.HasSuffix(first, "\n") {
		t.Error("encoding must end with a newline")
	}
	dec, err := DecodeReqTrace([]byte(first))
	if err != nil {
		t.Fatal(err)
	}
	if dec.ID != req.ID || dec.DurationNs != req.DurationNs || len(dec.Spans()) != len(req.Spans()) {
		t.Fatalf("decoded header mismatch: %+v vs %+v", dec, req)
	}
	// The decoded trace must be fully linked: accessors work.
	if dec.Root().Name != "request" {
		t.Errorf("decoded root = %q", dec.Root().Name)
	}
	if a, ok := dec.Span("child_one").Attr("hit"); !ok || a.Kind != AttrBool || a.Bool() {
		t.Errorf("decoded bool attr = %+v ok=%v (false must survive the trip)", a, ok)
	}
	if a, ok := dec.Span("grandchild").Attr("zero"); !ok || a.Kind != AttrInt || a.Int() != 0 {
		t.Errorf("decoded zero int attr = %+v ok=%v", a, ok)
	}
	// Second trip is byte-identical.
	var buf2 bytes.Buffer
	if err := EncodeReqTrace(&buf2, dec); err != nil {
		t.Fatal(err)
	}
	if buf2.String() != first {
		t.Errorf("re-encoding differs:\n%s\nvs\n%s", buf2.String(), first)
	}
}

func TestEncodeClampsNonFiniteFloats(t *testing.T) {
	tr := NewTracer(&TracerOptions{SlowThreshold: -1})
	req := tr.Start("request")
	req.Root().SetFloat("inf", math.Inf(1))
	req.Root().SetFloat("nan", math.NaN())
	tr.Finish(req)
	var buf bytes.Buffer
	if err := EncodeReqTrace(&buf, tr.Recent(1)[0]); err != nil {
		t.Fatalf("non-finite floats must not poison the encoding: %v", err)
	}
	dec, err := DecodeReqTrace(buf.Bytes())
	if err != nil {
		t.Fatal(err)
	}
	for _, key := range []string{"inf", "nan"} {
		if a, ok := dec.Root().Attr(key); !ok || a.Float() != 0 {
			t.Errorf("attr %q = %+v ok=%v, want clamped 0", key, a, ok)
		}
	}
}

func TestDecodeRejectsMalformedTraces(t *testing.T) {
	cases := map[string]string{
		"not json":           `{`,
		"no spans":           `{"id":1,"begin":"2026-01-01T00:00:00Z","duration_ns":5,"spans":[]}`,
		"root with parent":   `{"id":1,"begin":"2026-01-01T00:00:00Z","duration_ns":5,"spans":[{"name":"r","parent":0,"start_ns":0,"end_ns":5}]}`,
		"forward parent":     `{"id":1,"begin":"2026-01-01T00:00:00Z","duration_ns":5,"spans":[{"name":"r","parent":-1,"start_ns":0,"end_ns":5},{"name":"c","parent":1,"start_ns":0,"end_ns":1}]}`,
		"attr no payload":    `{"id":1,"begin":"2026-01-01T00:00:00Z","duration_ns":5,"spans":[{"name":"r","parent":-1,"start_ns":0,"end_ns":5,"attrs":[{"k":"x"}]}]}`,
		"attr two payloads":  `{"id":1,"begin":"2026-01-01T00:00:00Z","duration_ns":5,"spans":[{"name":"r","parent":-1,"start_ns":0,"end_ns":5,"attrs":[{"k":"x","i":1,"s":"y"}]}]}`,
		"non-root no parent": `{"id":1,"begin":"2026-01-01T00:00:00Z","duration_ns":5,"spans":[{"name":"r","parent":-1,"start_ns":0,"end_ns":5},{"name":"c","parent":-1,"start_ns":0,"end_ns":1}]}`,
	}
	for name, raw := range cases {
		if _, err := DecodeReqTrace([]byte(raw)); err == nil {
			t.Errorf("%s: decode accepted malformed input", name)
		}
	}
}

func TestWriteTracesArrayShape(t *testing.T) {
	a, b := buildTrace(t), buildTrace(t)
	var buf bytes.Buffer
	if err := WriteTraces(&buf, []*ReqTrace{a, b}); err != nil {
		t.Fatal(err)
	}
	out := buf.String()
	if !strings.HasPrefix(out, "[\n") || !strings.HasSuffix(out, "\n]\n") {
		t.Errorf("array framing wrong:\n%s", out)
	}
	if got := strings.Count(out, `"id":`); got != 2 {
		t.Errorf("array holds %d traces, want 2", got)
	}
	buf.Reset()
	if err := WriteTraces(&buf, nil); err != nil || buf.String() != "[\n\n]\n" {
		t.Errorf("empty array = %q err=%v", buf.String(), err)
	}
}

// FuzzSpanEncode: any trace the API can build round-trips through the
// codec with a stable second encoding, and any byte soup either decodes
// to something that re-encodes cleanly or is rejected — never a panic.
func FuzzSpanEncode(f *testing.F) {
	f.Add(int64(1), "route", "verb", int64(-3), 2.5, true, uint8(2))
	f.Add(int64(0), "", "", int64(0), math.Inf(1), false, uint8(0))
	f.Add(int64(99), "a_b", "k", int64(1<<62), math.NaN(), true, uint8(200))
	f.Add(int64(7), "bad\xffname", "k\xfe", int64(1), 0.0, true, uint8(1)) // invalid UTF-8 in names, keys and values
	f.Fuzz(func(t *testing.T, durNs int64, name, key string, iv int64, fv float64, bv bool, children uint8) {
		tr := NewTracer(&TracerOptions{SlowThreshold: -1, MaxSpans: 8})
		req := tr.Start(name)
		root := req.Root()
		root.SetInt(key, iv)
		root.SetFloat(key, fv)
		root.SetBool(key, bv)
		root.SetStr(key, name)
		for i := uint8(0); i < children; i++ {
			c := root.StartChild(name)
			c.SetInt(key, int64(i))
			c.End()
		}
		tr.Finish(req)
		req = tr.Recent(1)[0]
		req.DurationNs = durNs // exercise arbitrary durations

		var buf bytes.Buffer
		if err := EncodeReqTrace(&buf, req); err != nil {
			t.Fatalf("encode of API-built trace failed: %v", err)
		}
		first := buf.Bytes()
		dec, err := DecodeReqTrace(first)
		if err != nil {
			t.Fatalf("decode of own encoding failed: %v\n%s", err, first)
		}
		var buf2 bytes.Buffer
		if err := EncodeReqTrace(&buf2, dec); err != nil {
			t.Fatalf("re-encode failed: %v", err)
		}
		if !bytes.Equal(first, buf2.Bytes()) {
			t.Fatalf("round trip not stable:\n%s\nvs\n%s", first, buf2.Bytes())
		}
		// Feeding the raw input bytes back as a document must never panic.
		if dec2, err := DecodeReqTrace([]byte(name)); err == nil {
			var sink bytes.Buffer
			_ = EncodeReqTrace(&sink, dec2)
		}
	})
}

// TestSpanDurationHelpers covers Duration on spans and traces.
func TestSpanDurationHelpers(t *testing.T) {
	req := buildTrace(t)
	if req.Duration() != time.Duration(req.DurationNs) {
		t.Errorf("trace duration = %v, want %v ns", req.Duration(), req.DurationNs)
	}
	c := req.Span("child_one")
	if c.Duration() < 0 {
		t.Errorf("child duration negative: %v", c.Duration())
	}
	var nilSpan *Span
	if nilSpan.Duration() != 0 {
		t.Error("nil span duration must be 0")
	}
}
