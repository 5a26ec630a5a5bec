package obs

import (
	"encoding/json"
	"fmt"
	"io"
	"math"
	"time"
)

// Wire shapes for request traces: the contract of the wdmserve
// `tracejson` verb and the /debug/requests endpoint. Every span names
// its parent by index, and a parent precedes its children. Attributes
// carry their type in which payload field is present ("i"/"s"/"b"/"f");
// pointer fields keep a false boolean or a zero integer present.

type wireAttr struct {
	K string   `json:"k"`
	I *int64   `json:"i,omitempty"`
	S *string  `json:"s,omitempty"`
	B *bool    `json:"b,omitempty"`
	F *float64 `json:"f,omitempty"`
}

type wireSpan struct {
	Name    string     `json:"name"`
	Parent  int32      `json:"parent"`
	StartNs int64      `json:"start_ns"`
	EndNs   int64      `json:"end_ns"`
	Attrs   []wireAttr `json:"attrs,omitempty"`
}

type wireTrace struct {
	ID           uint64     `json:"id"`
	Begin        time.Time  `json:"begin"`
	DurationNs   int64      `json:"duration_ns"`
	DroppedSpans int32      `json:"dropped_spans,omitempty"`
	Spans        []wireSpan `json:"spans"`
}

// MarshalJSON renders the trace in the wire shape.
func (r *ReqTrace) MarshalJSON() ([]byte, error) {
	w := wireTrace{
		ID:           r.ID,
		Begin:        r.Begin,
		DurationNs:   r.DurationNs,
		DroppedSpans: r.DroppedSpans,
		Spans:        make([]wireSpan, len(r.spans)),
	}
	for i := range r.spans {
		s := &r.spans[i]
		w.Spans[i] = wireSpan{Name: s.Name, Parent: s.Parent, StartNs: s.StartNs, EndNs: s.EndNs}
	}
	for _, a := range r.attrs {
		wa := wireAttr{K: a.Key}
		switch a.Kind {
		case AttrInt:
			v := a.Int()
			wa.I = &v
		case AttrStr:
			v := a.Str
			wa.S = &v
		case AttrBool:
			v := a.Bool()
			wa.B = &v
		case AttrFloat:
			// JSON has no Inf/NaN literal; clamp to 0 rather than
			// poisoning the whole document.
			v := a.Float()
			if math.IsNaN(v) || math.IsInf(v, 0) {
				v = 0
			}
			wa.F = &v
		default:
			return nil, fmt.Errorf("obs: attr %q has unknown kind %d", a.Key, a.Kind)
		}
		ws := &w.Spans[a.span]
		ws.Attrs = append(ws.Attrs, wa)
	}
	return json.Marshal(w)
}

// EncodeReqTrace writes the trace as one compact JSON object plus a
// trailing newline — the `tracejson` verb's whole answer, and one
// element of the /debug/requests array.
func EncodeReqTrace(w io.Writer, r *ReqTrace) error {
	data, err := json.Marshal(r)
	if err != nil {
		return err
	}
	data = append(data, '\n')
	_, err = w.Write(data)
	return err
}

// WriteTraces renders a slice of traces as an indent-free JSON array,
// one trace per element, for the /debug/requests and /debug/slow
// endpoints.
func WriteTraces(w io.Writer, traces []*ReqTrace) error {
	if _, err := io.WriteString(w, "[\n"); err != nil {
		return err
	}
	for i, r := range traces {
		data, err := json.Marshal(r)
		if err != nil {
			return err
		}
		if i > 0 {
			if _, err := io.WriteString(w, ",\n"); err != nil {
				return err
			}
		}
		if _, err := w.Write(data); err != nil {
			return err
		}
	}
	_, err := io.WriteString(w, "\n]\n")
	return err
}
