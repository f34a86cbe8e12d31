package lint

import (
	"go/ast"
	"go/types"
	"testing"
)

// callgraphUnit loads the callgraph fixture into a fresh Unit.
func callgraphUnit(t *testing.T) *Unit {
	t.Helper()
	loader, err := NewLoader(".")
	if err != nil {
		t.Fatal(err)
	}
	pkg, err := loader.Load(fixturePrefix + "callgraph")
	if err != nil {
		t.Fatal(err)
	}
	return &Unit{Pkgs: []*Package{pkg}, Cfg: DefaultConfig()}
}

// fnNamed finds the fixture's declared function by name.
func fnNamed(t *testing.T, u *Unit, name string) *types.Func {
	t.Helper()
	u.ensureDecls()
	for _, di := range u.declList {
		if di.fn.Name() == name {
			return di.fn
		}
	}
	t.Fatalf("fixture function %s not found", name)
	return nil
}

// resolvedCalls lists the module functions each call in caller's body
// resolves to, as "static->callee" (go/types names one callee) or
// "dynamic->callee" (dynamicTargets' conservative fan-out).
func resolvedCalls(t *testing.T, u *Unit, caller string) map[string]bool {
	t.Helper()
	di := u.declOf(fnNamed(t, u, caller))
	got := map[string]bool{}
	ast.Inspect(di.decl.Body, func(n ast.Node) bool {
		call, ok := n.(*ast.CallExpr)
		if !ok {
			return true
		}
		if f := CalleeOf(di.pkg.Info, call); f != nil {
			if u.declOf(f) != nil {
				got["static->"+f.Name()] = true
			}
			return true
		}
		for _, callee := range u.dynamicTargets(di.pkg, call) {
			got["dynamic->"+callee.fn.Name()] = true
		}
		return true
	})
	return got
}

// TestCallGraphEdgeKinds pins the two kinds of call edge the
// interprocedural analyzers tell apart: a static call (plain, deferred
// or spawned) names its callee, and a call through a function value
// or interface resolves conservatively — through method values AND
// bound-method expressions — to every candidate, which lock-order's
// walk follows.
func TestCallGraphEdgeKinds(t *testing.T) {
	u := callgraphUnit(t)
	cases := []struct {
		caller string
		want   []string // "kind->callee" edges that must be present
	}{
		{"StaticCall", []string{"static->helper"}},
		{"DeferredCall", []string{"static->helper"}},
		{"GoCall", []string{"static->helper"}},
		{"MethodValue", []string{"dynamic->Work"}},
		{"MethodExpression", []string{"dynamic->Work"}},
		{"GoValue", []string{"dynamic->helper", "dynamic->target"}},
		{"SpawnAll", []string{"dynamic->helper", "dynamic->target"}},
		{"UseSpawnAll", []string{"static->SpawnAll", "static->Indirect", "static->GoValue"}},
	}
	for _, tc := range cases {
		t.Run(tc.caller, func(t *testing.T) {
			got := resolvedCalls(t, u, tc.caller)
			for _, w := range tc.want {
				if !got[w] {
					t.Errorf("calls of %s miss %q; got %v", tc.caller, w, keys(got))
				}
			}
		})
	}
}

// TestMethodExpressionResolution: a bound-method expression call
// resolves to the method (receiver folded back from the first
// parameter), and only to compatible targets — helper (no receiver,
// wrong arity as a method expression) must not appear.
func TestMethodExpressionResolution(t *testing.T) {
	u := callgraphUnit(t)
	got := resolvedCalls(t, u, "MethodExpression")
	if !got["dynamic->Work"] {
		t.Error("bound-method expression call did not resolve to Work")
	}
	if len(got) != 1 {
		t.Errorf("bound-method expression call resolved beyond Work: %v", keys(got))
	}
}

// TestBuiltinsAndConversionsAreNotCalls: a call of a builtin (len,
// cap) or a conversion (int64(x), Counter(Length)) calls no function
// value, though go/types records a function signature for the builtin
// and a conversion to a function type has one: neither resolves to the
// address-taken functions of that signature. The call through c, a
// Counter value, and FuncValue's call through f still do.
func TestBuiltinsAndConversionsAreNotCalls(t *testing.T) {
	u := callgraphUnit(t)
	for caller, want := range map[string]int{"Builtins": 1, "FuncValue": 1} {
		got := resolvedCalls(t, u, caller)
		if !got["dynamic->Length"] || len(got) != want {
			t.Errorf("the calls of %s resolve to %v, want only dynamic->Length", caller, keys(got))
		}
	}
	di := u.declOf(fnNamed(t, u, "Builtins"))
	dynamic := 0
	ast.Inspect(di.decl.Body, func(n ast.Node) bool {
		if call, ok := n.(*ast.CallExpr); ok && len(u.dynamicTargets(di.pkg, call)) > 0 {
			dynamic++
		}
		return true
	})
	if dynamic != 1 {
		t.Errorf("%d calls in Builtins resolve dynamically, want 1: c(s)", dynamic)
	}
}

func keys(m map[string]bool) []string {
	var out []string
	for k := range m {
		out = append(out, k)
	}
	return out
}
