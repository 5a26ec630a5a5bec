package analysis

import (
	"go/types"
	"strings"
	"testing"
)

// TestNameTablesResolve checks the analyzers' hard-coded method-name
// tables against the real method sets, both ways: a name the engine or
// the session manager no longer declares (or declares with a different
// owner-handle shape) is a table entry that silently matches nothing,
// and a new spelling of a claiming, releasing or admitting method that
// no table lists is a mutator the analyzers silently ignore.
func TestNameTablesResolve(t *testing.T) {
	pkgs, err := LoadPatterns(moduleRoot(t), enginePath, sessionPkgPath)
	if err != nil {
		t.Fatal(err)
	}
	method := func(pkgPath, typeName, name string) *types.Signature {
		t.Helper()
		for _, p := range pkgs {
			if p.Path != pkgPath {
				continue
			}
			obj := p.Types.Scope().Lookup(typeName)
			if obj == nil {
				t.Fatalf("%s has no type %s", pkgPath, typeName)
			}
			m, _, _ := types.LookupFieldOrMethod(types.NewPointer(obj.Type()), true, p.Types, name)
			fn, ok := m.(*types.Func)
			if !ok {
				t.Errorf("%s.%s has no method %q", pkgPath, typeName, name)
				return nil
			}
			return fn.Type().(*types.Signature)
		}
		t.Fatalf("package %s not loaded", pkgPath)
		return nil
	}
	// exported lists the exported methods of *pkgPath.typeName.
	exported := func(pkgPath, typeName string) []string {
		t.Helper()
		var names []string
		for _, p := range pkgs {
			if p.Path != pkgPath {
				continue
			}
			ms := types.NewMethodSet(types.NewPointer(p.Types.Scope().Lookup(typeName).Type()))
			for i := 0; i < ms.Len(); i++ {
				if ms.At(i).Obj().Exported() {
					names = append(names, ms.At(i).Obj().Name())
				}
			}
		}
		return names
	}
	isInt64 := func(v *types.Var) bool {
		b, ok := v.Type().Underlying().(*types.Basic)
		return ok && b.Kind() == types.Int64
	}
	for _, table := range []struct {
		name  string
		names map[string]bool
	}{{"engineAcquires", engineAcquires}, {"engineReleases", engineReleases}} {
		for name := range table.names {
			// acqOwner and matchRelease read the owner handle from argument 0.
			if sig := method(enginePath, "Engine", name); sig != nil &&
				(sig.Params().Len() == 0 || !isInt64(sig.Params().At(0))) {
				t.Errorf("%s: Engine.%s does not take the int64 owner as argument 0: %s", table.name, name, sig)
			}
		}
	}
	for name := range advancingMethods {
		method(enginePath, "Engine", name)
	}
	for name := range sessionAcquires {
		// acqResult reads the circuit handle from result 0.
		if sig := method(sessionPkgPath, "Manager", name); sig != nil && sig.Results().Len() == 0 {
			t.Errorf("sessionAcquires: Manager.%s returns nothing", name)
		}
	}

	for _, name := range exported(enginePath, "Engine") {
		claims, frees := strings.Contains(name, "Allocate"), strings.Contains(name, "Release")
		if claims && !engineAcquires[name] {
			t.Errorf("Engine.%s claims channels but is not in engineAcquires", name)
		}
		if frees && !engineReleases[name] {
			t.Errorf("Engine.%s frees channels but is not in engineReleases", name)
		}
		if (claims || frees) && !advancingMethods[name] {
			t.Errorf("Engine.%s publishes an epoch but is not in advancingMethods", name)
		}
	}
	for _, name := range exported(sessionPkgPath, "Manager") {
		if strings.HasPrefix(name, "Admit") && !sessionAcquires[name] {
			t.Errorf("Manager.%s admits a circuit but is not in sessionAcquires", name)
		}
	}
}
