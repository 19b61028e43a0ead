// Package hotpath is the hotpath-alloc fixture: regions annotated
// //tdb:hotpath must not heap-allocate, box into interfaces, grow maps
// or appends, or capture closures; error paths and pre-sized appends are
// exempt. No escape proof is attempted: a new the compiler would keep on
// the stack is still reported.
package hotpath

type item struct {
	key  int
	name string
}

// Sink receives boxed values; package-level so stores into it escape.
var Sink any

// BadFuncAnnotated is hot as a whole: the annotation sits on the line
// above the declaration.
//
//tdb:hotpath
func BadFuncAnnotated(items []item, out chan<- any) []int {
	acc := make([]int, 0) // want hotpath-alloc
	for _, it := range items {
		acc = append(acc, it.key) // want hotpath-alloc
		out <- it.key             // want hotpath-alloc
	}
	return acc
}

// BadLoopAnnotated is cold except for its annotated sweep loop.
func BadLoopAnnotated(items []item) []string {
	names := make([]string, 0) // cold: allocation outside the region
	//tdb:hotpath
	for _, it := range items {
		names = append(names, it.name) // want hotpath-alloc
		Sink = it.key                  // want hotpath-alloc
	}
	return names
}

// GoodPresized shows the two clean append shapes: a make with explicit
// capacity, and the s[:0] reuse idiom.
//
//tdb:hotpath
func GoodPresized(items []item, scratch []int) ([]int, []int) {
	acc := make([]int, 0, len(items))
	kept := scratch[:0]
	for _, it := range items {
		acc = append(acc, it.key)
		kept = append(kept, it.key)
	}
	return acc, kept
}

// BadGrowth collects the per-iteration allocation shapes.
//
//tdb:hotpath
func BadGrowth(items []item) map[int]string {
	index := make(map[int]string) // want hotpath-alloc
	for _, it := range items {
		index[it.key] = it.name // want hotpath-alloc
		wake := make(chan int)  // want hotpath-alloc
		_ = wake
	}
	return index
}

// BadCapture allocates a closure per iteration.
func BadCapture(items []item, run func(func() int)) {
	//tdb:hotpath
	for _, it := range items {
		it := it
		run(func() int { return it.key }) // want hotpath-alloc
	}
}

// BadBoxing converts concrete values to interfaces in three positions:
// assignment, call argument, and variadic call.
//
//tdb:hotpath
func BadBoxing(items []item, consume func(any), consumeAll func(...any)) {
	for _, it := range items {
		var v any = it.key // want hotpath-alloc
		_ = v
		consume(it.name)       // want hotpath-alloc
		consumeAll(it.key, it) // want hotpath-alloc
	}
}

// GoodErrorPath keeps its failure branch out of the audit: an if-body
// ending in a return is an error path, not hot-loop steady state.
//
//tdb:hotpath
func GoodErrorPath(items []item, limit int) ([]int, error) {
	acc := make([]int, 0, len(items))
	for _, it := range items {
		if len(acc) >= limit {
			detail := make([]string, 0) // exempt: error path
			detail = append(detail, it.name)
			return nil, &limitError{what: detail}
		}
		acc = append(acc, it.key)
	}
	return acc, nil
}

// limitError carries the error-path allocation above.
type limitError struct{ what []string }

func (e *limitError) Error() string { return "limit exceeded" }

// BadStackBoundNewReported is reported although its pointer never leaves
// the function: the rule reads syntax and types only, so a stack-bound
// allocation in a hot region needs a lint:allow justification.
//
//tdb:hotpath
func BadStackBoundNewReported(items []item) int {
	total := 0
	for _, it := range items {
		tmp := new(item) // want hotpath-alloc
		tmp.key = it.key
		total += tmp.key
	}
	return total
}

// BadEscapingNew is the same shape, but the pointer escapes into the
// package-level sink.
//
//tdb:hotpath
func BadEscapingNew(items []item) {
	for _, it := range items {
		tmp := new(item) // want hotpath-alloc
		tmp.key = it.key
		Sink = tmp // want hotpath-alloc
	}
}

// holder has an interface field, so its literals box.
type holder struct {
	v any
	n int
}

// BadBoxingPositions boxes in the remaining positions, one per line: a
// send on a chan any, slice, map and struct literal elements, an explicit
// conversion, a panic operand, and an untyped constant argument.
//
//tdb:hotpath
func BadBoxingPositions(items []item, out chan any, consume func(any)) []holder {
	held := make([]holder, 0, len(items))
	for _, it := range items {
		out <- it.name // want hotpath-alloc
		row := []any{  // want hotpath-alloc
			it.key,  // want hotpath-alloc
			it.name, // want hotpath-alloc
		}
		_ = row
		byKey := map[any]any{ // want hotpath-alloc
			it.key:  // want hotpath-alloc
			it.name, // want hotpath-alloc
		}
		_ = byKey
		held = append(held,
			holder{v: it.key, n: it.key}, // want hotpath-alloc
			holder{it, it.key},           // want hotpath-alloc
		)
		out <- any(it.key) // want hotpath-alloc
		consume(7)         // want hotpath-alloc
		if it.key < 0 {
			// lint:allow panic the fixture's panic-operand case, not a library panic
			panic(it.key) // want hotpath-alloc
		}
	}
	return held
}

// GoodNoBoxing moves values that are interfaces already, passes values
// at type-parameter positions, passes an untyped nil, and appends to a
// var defined with an explicit capacity: nothing here boxes or grows.
//
//tdb:hotpath
func GoodNoBoxing[T any](xs []T, vs []any, consume func(T), sink func(any)) []any {
	var kept = make([]any, 0, len(vs))
	for i, x := range xs {
		consume(x)
		keep(x)
		sink(nil)
		var w any = vs[i]
		kept = append(kept, w)
	}
	return kept
}

// keep takes a type-parameter argument.
func keep[T any](v T) T { return v }

// GoodJustified keeps a boxing but owns the decision.
//
//tdb:hotpath
func GoodJustified(items []item, consume func(any)) {
	for _, it := range items {
		consume(it.key) // lint:allow hotpath-alloc — boxing accepted until the typed consumer lands
	}
}

// ColdUnannotated is identical to BadGrowth but unannotated: nothing is
// reported outside a //tdb:hotpath region.
func ColdUnannotated(items []item) map[int]string {
	index := make(map[int]string)
	for _, it := range items {
		index[it.key] = it.name
	}
	return index
}
