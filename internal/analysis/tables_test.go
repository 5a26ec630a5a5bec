package analysis

import (
	"go/types"
	"sort"
	"strings"
	"testing"
)

// TestNameTablesMatchObs checks the analyzers' obs method-name tables
// against the real method sets, both ways: a table entry the obs
// package no longer declares (or declares with a different argument 0)
// silently matches nothing, and a new registry constructor or attribute
// setter that no table lists is a call the analyzers silently ignore.
func TestNameTablesMatchObs(t *testing.T) {
	pkgs, err := LoadPatterns(moduleRoot(t), obsPath)
	if err != nil {
		t.Fatal(err)
	}
	obs := pkgs[0].Types
	// methods maps each exported method of *obs.typeName to the type
	// of its first parameter (nil when it takes none).
	methods := func(t *testing.T, typeName string) map[string]types.Type {
		t.Helper()
		obj := obs.Scope().Lookup(typeName)
		if obj == nil {
			t.Fatalf("obs has no type %s", typeName)
		}
		out := make(map[string]types.Type)
		ms := types.NewMethodSet(types.NewPointer(obj.Type()))
		for i := 0; i < ms.Len(); i++ {
			fn := ms.At(i).Obj()
			if !fn.Exported() {
				continue
			}
			params := fn.Type().(*types.Signature).Params()
			out[fn.Name()] = nil
			if params.Len() > 0 {
				out[fn.Name()] = params.At(0).Type()
			}
		}
		return out
	}
	isString := func(t types.Type) bool {
		b, ok := t.(*types.Basic)
		return ok && b.Kind() == types.String
	}

	for _, c := range []struct {
		table    string
		names    map[string]bool
		typeName string
		// member says whether a method belongs in the table.
		member func(name string, arg0 types.Type) bool
		// arg0 is what the analyzer reads from argument 0.
		arg0 func(types.Type) bool
	}{
		{"metricCtors", metricCtors, "Registry",
			func(_ string, arg0 types.Type) bool { return isString(arg0) }, isString},
		{"attrSetters", attrSetters, "Span",
			func(name string, _ types.Type) bool { return strings.HasPrefix(name, "Set") }, isString},
	} {
		t.Run(c.table, func(t *testing.T) {
			ms := methods(t, c.typeName)
			for name := range c.names {
				arg0, ok := ms[name]
				if !ok {
					t.Errorf("%s: *obs.%s has no exported method %s", c.table, c.typeName, name)
					continue
				}
				if arg0 == nil || !c.arg0(arg0) {
					t.Errorf("%s: (*obs.%s).%s takes %v as argument 0", c.table, c.typeName, name, arg0)
				}
			}
			var missing []string
			for name, arg0 := range ms {
				if c.member(name, arg0) && !c.names[name] {
					missing = append(missing, name)
				}
			}
			sort.Strings(missing)
			for _, name := range missing {
				t.Errorf("(*obs.%s).%s is not in %s", c.typeName, name, c.table)
			}
		})
	}
}
