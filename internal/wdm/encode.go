package wdm

import (
	"encoding/json"
	"fmt"
	"io"
	"math"
)

// This file provides a JSON wire format for networks so the cmd/ tools
// can generate, store and route over instance files.
//
// Converters are encoded structurally. The general table form round-trips
// exactly; the parametric forms (uniform, distance, none) round-trip by
// kind + parameters.

// converterJSON is the serialized form of a Converter.
type converterJSON struct {
	Kind    string      `json:"kind"` // "none" | "uniform" | "distance" | "table"
	C       float64     `json:"c,omitempty"`
	Radius  int         `json:"radius,omitempty"`
	PerStep float64     `json:"perStep,omitempty"`
	Entries []convEntry `json:"entries,omitempty"`
}

type convEntry struct {
	Node int        `json:"node"`
	From Wavelength `json:"from"`
	To   Wavelength `json:"to"`
	Cost float64    `json:"cost"`
}

// networkJSON is the serialized form of a Network.
type networkJSON struct {
	Nodes     int            `json:"nodes"`
	K         int            `json:"k"`
	Links     []Link         `json:"links"`
	Converter *converterJSON `json:"converter,omitempty"`
}

// MarshalNetwork serializes nw to JSON.
func MarshalNetwork(nw *Network) ([]byte, error) {
	doc := networkJSON{Nodes: nw.NumNodes(), K: nw.K(), Links: nw.Links()}
	cj, err := encodeConverter(nw.Converter())
	if err != nil {
		return nil, err
	}
	doc.Converter = cj
	return json.MarshalIndent(doc, "", "  ")
}

// WriteNetwork serializes nw as JSON to w.
func WriteNetwork(w io.Writer, nw *Network) error {
	data, err := MarshalNetwork(nw)
	if err != nil {
		return err
	}
	_, err = w.Write(data)
	return err
}

// UnmarshalNetwork parses a network from its JSON form.
func UnmarshalNetwork(data []byte) (*Network, error) {
	var doc networkJSON
	if err := json.Unmarshal(data, &doc); err != nil {
		return nil, fmt.Errorf("wdm: decode network: %w", err)
	}
	if doc.Nodes < 0 || doc.K < 0 {
		return nil, fmt.Errorf("wdm: decode network: negative nodes/k")
	}
	nw := NewNetwork(doc.Nodes, doc.K)
	for _, l := range doc.Links {
		if _, err := nw.AddLink(l.From, l.To, l.Channels); err != nil {
			return nil, fmt.Errorf("wdm: decode link %d->%d: %w", l.From, l.To, err)
		}
	}
	conv, err := decodeConverter(doc.Converter)
	if err != nil {
		return nil, err
	}
	nw.SetConverter(conv)
	return nw, nil
}

func encodeConverter(c Converter) (*converterJSON, error) {
	switch cv := c.(type) {
	case nil:
		return nil, nil
	case NoConversion:
		return &converterJSON{Kind: "none"}, nil
	case UniformConversion:
		return &converterJSON{Kind: "uniform", C: cv.C}, nil
	case DistanceConversion:
		return &converterJSON{Kind: "distance", Radius: cv.Radius, PerStep: cv.PerStep}, nil
	case *TableConversion:
		entries := make([]convEntry, 0, cv.Len())
		for k, cost := range cv.Entries() {
			if math.IsInf(cost, 1) {
				continue
			}
			entries = append(entries, convEntry{Node: k.Node, From: k.From, To: k.To, Cost: cost})
		}
		return &converterJSON{Kind: "table", Entries: entries}, nil
	default:
		return nil, fmt.Errorf("wdm: converter type %T is not serializable", c)
	}
}

func decodeConverter(cj *converterJSON) (Converter, error) {
	if cj == nil {
		return nil, nil
	}
	switch cj.Kind {
	case "none":
		return NoConversion{}, nil
	case "uniform":
		return UniformConversion{C: cj.C}, nil
	case "distance":
		return DistanceConversion{Radius: cj.Radius, PerStep: cj.PerStep}, nil
	case "table":
		t := NewTableConversion()
		for _, e := range cj.Entries {
			t.Set(e.Node, e.From, e.To, e.Cost)
		}
		return t, nil
	default:
		return nil, fmt.Errorf("wdm: unknown converter kind %q", cj.Kind)
	}
}
