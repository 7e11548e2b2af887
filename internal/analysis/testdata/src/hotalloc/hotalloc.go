// Fixture for the hotalloc analyzer. Hotness comes from the
// //scalvet:hot annotation; cold() below proves unannotated functions
// are exempt from every rule.
package hotalloc

import (
	"errors"
	"fmt"
	"strconv"
)

type sink struct{ rows [][]uint64 }

var global [][]uint64

func consume(v any)       {}
func consumePtr(p *sink)  {}
func consumeInt(n int)    {}
func variadic(vs ...any)  {}
func spread(vs ...string) {}

//scalvet:hot fixture root
func hotMakes(n int, s *sink) {
	for i := 0; i < n; i++ {
		buf := make([]uint64, n) // want "make([]uint64) allocates every iteration"
		s.rows = append(s.rows, buf)

		m := make(map[string]int, n) // want "make(map[string]int) allocates every iteration"
		consume(m)

		ch := make(chan int, 4) // want "make(chan int) allocates every iteration"
		consume(ch)

		// Constant-sized and local: the compiler could stack-allocate it,
		// but hotalloc does not model escape, so it is flagged too.
		tmp := make([]uint64, 8) // want "make([]uint64) allocates every iteration"
		tmp[0] = uint64(i)
		consumeInt(int(tmp[0]))
	}
	// Outside any loop make is a one-time cost: not flagged.
	once := make([]uint64, n)
	s.rows = append(s.rows, once)
}

//scalvet:hot fixture root
func hotLiterals(n int) {
	for i := 0; i < n; i++ {
		global = append(global, []uint64{uint64(i), 2}) // want "[]uint64 literal allocates every iteration"

		pair := map[string]int{"i": i} // want "map[string]int literal allocates every iteration"
		consume(pair)

		// Local, constant-shaped literal: flagged like any other, since
		// hotalloc does not model escape.
		local := []uint64{1, 2, 3} // want "[]uint64 literal allocates every iteration"
		consumeInt(int(local[0]))

		// Struct literals are values, not heap allocations per se.
		v := sink{}
		consumePtr(&v)
	}
}

//scalvet:hot fixture root
func hotAppends(items []int) []int {
	var out []int
	for _, it := range items {
		out = append(out, it) // want "append to out inside a hot loop regrows it"
	}
	capped := make([]int, 0, len(items))
	for _, it := range items {
		capped = append(capped, it) // capacity pinned at declaration: fine
	}
	_ = capped
	return out
}

//scalvet:hot fixture root
func hotConversions(words []string) int {
	total := 0
	for _, w := range words {
		b := []byte(w) // want "conversion to []byte allocates every iteration"
		total += len(b)
	}
	return total
}

//scalvet:hot fixture root
func hotFmt(names []string) (string, error) {
	if len(names) == 0 {
		// Return-operand error exits run at most once: not flagged.
		return "", fmt.Errorf("no names")
	}
	head := fmt.Sprintf("n=%d", len(names)) // want "fmt.Sprintf on the hot path"
	for _, n := range names {
		fmt.Println(n) // want "fmt.Println in a hot loop"
		if n == "" {
			return "", errors.New("empty name")
		}
		_ = strconv.Itoa(len(n)) // the recommended replacement: fine
	}
	return head, nil
}

//scalvet:hot fixture root
func hotBoxing(ns []int, ps []*sink, tags []string) {
	for _, n := range ns {
		consume(n)       // want "int argument is boxed into any"
		variadic(n, n+1) // want "int argument is boxed into any" "int argument is boxed into any"
		consume("tag")   // constants box into static data: fine
		consume(nil)     // nil is not boxed
		spread(tags...)  // s... passes the slice through, no boxing
	}
	for _, p := range ps {
		consume(p) // pointers fit the interface word: no allocation
	}
}

//scalvet:hot fixture root
func hotRangeHeader(extra []uint64) uint64 {
	var t uint64
	// The range expression evaluates once, before the first iteration:
	// not a per-iteration allocation.
	for _, v := range append([]uint64{1}, extra...) {
		t += v
	}
	return t
}

//scalvet:hot suppression case
func hotSuppressed(n int) {
	for i := 0; i < n; i++ {
		global = append(global, []uint64{uint64(i)}) //scalvet:ignore scratch rows, reset between regions
	}
	for i := 0; i < n; i++ {
		global = append(global, []uint64{uint64(i)}) /* want "[]uint64 literal allocates" "needs a reason" */ //scalvet:ignore
	}
}

// cold has no //scalvet:hot annotation and is unreachable from any root:
// identical code, zero findings.
func cold(n int) {
	for i := 0; i < n; i++ {
		buf := make([]uint64, n)
		global = append(global, buf)
		consume(i)
		_ = fmt.Sprintf("i=%d", i)
	}
}
