package wdm

import (
	"bytes"
	"math"
	"reflect"
	"strings"
	"testing"
)

func TestNetworkRoundTrip(t *testing.T) {
	nw := NewNetwork(3, 4)
	mustLink(t, nw, 0, 1, chans(0, 1.5, 2, 2.5))
	mustLink(t, nw, 1, 2, chans(3, 0.25))
	nw.SetConverter(UniformConversion{C: 0.75})

	data, err := MarshalNetwork(nw)
	if err != nil {
		t.Fatalf("Marshal: %v", err)
	}
	got, err := UnmarshalNetwork(data)
	if err != nil {
		t.Fatalf("Unmarshal: %v", err)
	}
	if got.NumNodes() != 3 || got.K() != 4 || got.NumLinks() != 2 {
		t.Fatalf("shape mismatch: n=%d k=%d m=%d", got.NumNodes(), got.K(), got.NumLinks())
	}
	if !reflect.DeepEqual(got.Links(), nw.Links()) {
		t.Fatalf("links mismatch:\n got %+v\nwant %+v", got.Links(), nw.Links())
	}
	if got.Converter() != (UniformConversion{C: 0.75}) {
		t.Fatalf("converter = %+v", got.Converter())
	}
}

func TestConverterKindsRoundTrip(t *testing.T) {
	tab := NewTableConversion()
	tab.Set(1, 0, 1, 3)
	tab.Set(2, 1, 0, 4)
	cases := []Converter{
		nil,
		NoConversion{},
		UniformConversion{C: 2},
		DistanceConversion{Radius: 3, PerStep: 0.5},
		tab,
	}
	for _, conv := range cases {
		nw := NewNetwork(3, 2)
		mustLink(t, nw, 0, 1, chans(0, 1))
		nw.SetConverter(conv)
		data, err := MarshalNetwork(nw)
		if err != nil {
			t.Fatalf("%T: Marshal: %v", conv, err)
		}
		got, err := UnmarshalNetwork(data)
		if err != nil {
			t.Fatalf("%T: Unmarshal: %v", conv, err)
		}
		if conv == nil {
			if got.Converter() != nil {
				t.Fatalf("nil converter round-tripped to %+v", got.Converter())
			}
			continue
		}
		// Behavioural equality over a small probe set.
		for node := 0; node < 3; node++ {
			for f := Wavelength(0); f < 2; f++ {
				for to := Wavelength(0); to < 2; to++ {
					a, b := conv.Cost(node, f, to), got.Converter().Cost(node, f, to)
					if a != b && !(math.IsInf(a, 1) && math.IsInf(b, 1)) {
						t.Fatalf("%T: Cost(%d,%d,%d) = %v vs %v", conv, node, f, to, a, b)
					}
				}
			}
		}
	}
}

func TestUnserializableConverter(t *testing.T) {
	nw := NewNetwork(1, 1)
	nw.SetConverter(ConverterFunc(func(int, Wavelength, Wavelength) float64 { return 0 }))
	if _, err := MarshalNetwork(nw); err == nil {
		t.Fatal("function converters must not serialize")
	}
}

func TestUnmarshalErrors(t *testing.T) {
	cases := []string{
		`{not json`,
		`{"nodes":-1,"k":0}`,
		`{"nodes":2,"k":1,"links":[{"from":0,"to":9,"channels":[]}]}`,
		`{"nodes":1,"k":1,"converter":{"kind":"warp-drive"}}`,
	}
	for _, raw := range cases {
		if _, err := UnmarshalNetwork([]byte(raw)); err == nil {
			t.Fatalf("input %q should fail to parse", raw)
		}
	}
}

func TestWriteRead(t *testing.T) {
	nw := NewNetwork(2, 2)
	mustLink(t, nw, 0, 1, chans(1, 2))
	nw.SetConverter(NoConversion{})
	var buf bytes.Buffer
	if err := WriteNetwork(&buf, nw); err != nil {
		t.Fatalf("Write: %v", err)
	}
	if !strings.Contains(buf.String(), `"kind": "none"`) {
		t.Fatalf("serialized form missing converter kind: %s", buf.String())
	}
	got, err := UnmarshalNetwork(buf.Bytes())
	if err != nil {
		t.Fatalf("Read: %v", err)
	}
	if got.NumLinks() != 1 || got.K() != 2 {
		t.Fatal("read-back mismatch")
	}
}
