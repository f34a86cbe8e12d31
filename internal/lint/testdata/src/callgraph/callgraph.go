// Package callgraph is a dvmlint fixture for the call-graph substrate
// (callgraph.go): static calls (plain, deferred, spawned) and dynamic
// ones through method values, bound-method expressions and
// function-value parameters. It is driven by callgraph_test.go, not by
// an analyzer golden.
package callgraph

// T carries the method used as a method value and a method expression.
type T struct{ n int }

// Work is resolved dynamically through both binding forms below.
func (t *T) Work() { t.n++ }

func helper() {}

func target() {}

// StaticCall makes a plain static call.
func StaticCall() { helper() }

// DeferredCall defers a static call.
func DeferredCall() { defer helper() }

// GoCall spawns a static call.
func GoCall() { go helper() }

// MethodValue calls through a bound-method value: a dynamic edge to
// every address-taken function of the value's signature, Work included.
func MethodValue(t *T) {
	fv := t.Work
	fv()
}

// MethodExpression calls through a bound-method expression: the
// receiver surfaces as the first parameter, which methodExprMatches
// folds back onto Work's receiver.
func MethodExpression(t *T) {
	f := (*T).Work
	f(t)
}

// GoValue spawns a function value: a dynamic call to every
// address-taken func().
func GoValue(fn func()) { go fn() }

// SpawnAll ranges over a variadic function-value parameter and spawns
// each element: a dynamic call, like GoValue's.
func SpawnAll(fns ...func()) {
	for _, fn := range fns {
		go fn()
	}
}

// Indirect passes its parameter onward: a static call to SpawnAll.
func Indirect(fn func()) { SpawnAll(fn) }

// UseSpawnAll keeps the helpers address-taken and makes static calls
// to the spawning helpers.
func UseSpawnAll() {
	SpawnAll(helper, target)
	Indirect(helper)
	GoValue(target)
}

// Counter is a function type that a conversion names.
type Counter func(string) int

// Length has the signature of len on a string and of Counter, and is
// address-taken (Builtins and FuncValue use it as a value).
func Length(s string) int { return 0 }

// Builtins calls the builtin len and converts Length to Counter:
// neither call goes through a function value, so neither resolves to
// Length.
func Builtins(s string) int {
	c := Counter(Length)
	return len(s) + cap([]int{}) + int(int64(len(s))) + c(s)
}

// FuncValue calls Length through a function value: a dynamic call,
// which resolves to Length.
func FuncValue(s string) int {
	f := Length
	return f(s)
}
