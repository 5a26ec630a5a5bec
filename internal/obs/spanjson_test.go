package obs

import (
	"bytes"
	"encoding/json"
	"math"
	"strings"
	"testing"
	"time"
)

// buildTrace assembles a deterministic trace with every attribute kind.
func buildTrace(t *testing.T) *ReqTrace {
	t.Helper()
	tr := NewTracer(nil)
	tr.SetSlowThreshold(-1)
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

// TestEncodeDecodeRoundTrip: encoding/json decodes an encoded trace
// into the wire shape, false booleans and zero integers included, and
// re-encodes it to the same bytes.
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
	var w wireTrace
	if err := json.Unmarshal([]byte(first), &w); err != nil {
		t.Fatal(err)
	}
	if w.ID != req.ID || w.DurationNs != req.DurationNs || len(w.Spans) != len(req.Spans()) {
		t.Fatalf("decoded header mismatch: %+v vs %+v", w, req)
	}
	if w.Spans[0].Name != "request" || w.Spans[0].Parent != -1 {
		t.Errorf("decoded root = %+v", w.Spans[0])
	}
	if a := w.Spans[1].Attrs[1]; a.K != "hit" || a.B == nil || *a.B {
		t.Errorf("decoded bool attr = %+v (false must survive the trip)", a)
	}
	if a := w.Spans[2].Attrs[0]; a.K != "zero" || a.I == nil || *a.I != 0 {
		t.Errorf("decoded zero int attr = %+v", a)
	}
	again, err := json.Marshal(w)
	if err != nil {
		t.Fatal(err)
	}
	if string(again)+"\n" != first {
		t.Errorf("re-encoding differs:\n%s\nvs\n%s", again, first)
	}
}

func TestEncodeClampsNonFiniteFloats(t *testing.T) {
	tr := NewTracer(nil)
	tr.SetSlowThreshold(-1)
	req := tr.Start("request")
	req.Root().SetFloat("inf", math.Inf(1))
	req.Root().SetFloat("nan", math.NaN())
	tr.Finish(req)
	var buf bytes.Buffer
	if err := EncodeReqTrace(&buf, tr.Recent(1)[0]); err != nil {
		t.Fatalf("non-finite floats must not poison the encoding: %v", err)
	}
	spans := wireSpans(t, buf.Bytes())
	for i, key := range []string{"inf", "nan"} {
		if a := spans[0].attrs[i]; a.key != key || a.kind != "f" || a.value != 0.0 {
			t.Errorf("attr %d = %+v, want %q clamped to 0", i, a, key)
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

// decodedSpan is one span of an encoded trace as encoding/json alone
// reads it back.
type decodedSpan struct {
	name   string
	parent int
	attrs  []decodedAttr
}

// decodedAttr is one attribute: its key, which payload field carried
// it ("i", "s", "b" or "f") and that field's decoded value.
type decodedAttr struct {
	key   string
	kind  string
	value any
}

// wireSpans checks one encoded trace against the wire contract with
// encoding/json alone: the document is valid JSON, span 0 is the one
// root, every other span's parent precedes it, and every attribute has
// exactly one payload. It returns the spans in order.
func wireSpans(t *testing.T, doc []byte) []decodedSpan {
	t.Helper()
	if !json.Valid(doc) {
		t.Fatalf("encoding is not valid JSON:\n%s", doc)
	}
	var w struct {
		Spans []struct {
			Name   string           `json:"name"`
			Parent *int             `json:"parent"`
			Attrs  []map[string]any `json:"attrs"`
		} `json:"spans"`
	}
	if err := json.Unmarshal(doc, &w); err != nil {
		t.Fatal(err)
	}
	if len(w.Spans) == 0 {
		t.Fatalf("trace has no spans:\n%s", doc)
	}
	out := make([]decodedSpan, len(w.Spans))
	for i, ws := range w.Spans {
		if ws.Parent == nil {
			t.Fatalf("span %d has no parent field:\n%s", i, doc)
		}
		if p := *ws.Parent; (i == 0) != (p < 0) || p >= i {
			t.Fatalf("span %d has parent %d: want one root, at 0, and parents before children", i, p)
		}
		out[i] = decodedSpan{name: ws.Name, parent: *ws.Parent}
		for _, wa := range ws.Attrs {
			key, _ := wa["k"].(string)
			a := decodedAttr{key: key}
			for kind, v := range wa {
				if kind == "k" {
					continue
				}
				if a.kind != "" {
					t.Fatalf("span %d attr %q has payloads %q and %q", i, key, a.kind, kind)
				}
				a.kind, a.value = kind, v
			}
			if a.kind == "" {
				t.Fatalf("span %d attr %q has no payload", i, key)
			}
			out[i].attrs = append(out[i].attrs, a)
		}
	}
	return out
}

// FuzzSpanEncode: any trace the API can build — arbitrary names, keys,
// values and durations, invalid UTF-8 and more children than a trace
// holds included — encodes to valid JSON that encoding/json reads back
// as the tree and the typed attributes it was built from.
func FuzzSpanEncode(f *testing.F) {
	f.Add(int64(1), "route", "verb", int64(-3), 2.5, true, uint8(2))
	f.Add(int64(0), "", "", int64(0), math.Inf(1), false, uint8(0))
	f.Add(int64(99), "a_b", "k", int64(1<<62), math.NaN(), true, uint8(200))
	f.Add(int64(7), "bad\xffname", "k\xfe", int64(1), 0.0, true, uint8(1)) // invalid UTF-8 in names, keys and values
	f.Fuzz(func(t *testing.T, durNs int64, name, key string, iv int64, fv float64, bv bool, children uint8) {
		tr := NewTracer(nil)
		tr.SetSlowThreshold(-1)
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
		spans := wireSpans(t, buf.Bytes())
		if want := 1 + min(int(children), DefaultMaxSpans-1); len(spans) != want {
			t.Fatalf("%d spans encoded, want %d", len(spans), want)
		}
		for i, sp := range spans {
			want := []string{"i"} // each child's index
			if i == 0 {
				want = []string{"i", "f", "b", "s"} // the root's, in setting order
			}
			if len(sp.attrs) != len(want) {
				t.Fatalf("span %d has %d attrs, want %d", i, len(sp.attrs), len(want))
			}
			for j, a := range sp.attrs {
				if a.kind != want[j] {
					t.Errorf("span %d attr %d carries %q, set as %q", i, j, a.kind, want[j])
				}
			}
			if i > 0 && (sp.parent != 0 || sp.attrs[0].value != float64(i-1)) {
				t.Errorf("child %d = %+v, want parent 0 and index %d", i, sp, i-1)
			}
		}
		if b := spans[0].attrs[2].value; b != bv {
			t.Errorf("root bool = %v, set %v", b, bv)
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
