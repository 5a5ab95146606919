// Golden cases for the noalloc analyzer: every allocation-forcing
// construct inside an annotated function, and the sanctioned patterns
// (caller-owned buffers, non-capturing closures) that stay silent.
package noalloc

import "fmt"

func sink(v any) {}

// hot trips each allocating construct once.
//
//numalint:noalloc
func hot(name string, n int) {
	s := "id-" + name // want "string concatenation allocates"
	_ = s
	m := map[string]int{} // want "map literal allocates"
	_ = m
	sl := []int{1, 2} // want "slice literal allocates"
	_ = sl
	b := make([]byte, n) // want "make allocates"
	_ = b
	fmt.Println() // want "call to fmt.Println allocates"
	sink(n)       // want "argument boxes int into interface"
}

type label string

// conv trips the allocating conversions; a string-to-string one copies
// nothing.
//
//numalint:noalloc
func conv(b []byte, s string, r rune, l label) int {
	out := string(b) // want "conversion to string allocates"
	raw := []byte(s) // want "conversion from string allocates"
	ch := string(r)  // want "conversion to string allocates"
	same := string(l)
	return len(out) + len(raw) + len(ch) + len(same)
}

// closures: a capturing closure escapes; a non-capturing one is free.
//
//numalint:noalloc
func closures(n int) int {
	inc := func(x int) int { return x + 1 }
	total := inc(n)
	f := func() int { return n } // want "closure captures n and escapes to the heap"
	return total + f()
}

// growth appends into a locally created, capacity-less slice.
//
//numalint:noalloc
func growth(src []int) int {
	var out []int
	for _, v := range src {
		out = append(out, v) // want "append grows out, which was created without capacity"
	}
	return len(out)
}

// encode appends into the caller-owned buffer: the sanctioned encoder
// shape, no finding.
//
//numalint:noalloc
func encode(dst []byte, v byte) []byte {
	dst = append(dst, v, v+1)
	return dst
}

// cold is unannotated: the analyzer ignores it entirely.
func cold(name string) string {
	m := map[string]int{name: 1}
	return fmt.Sprint(m)
}
