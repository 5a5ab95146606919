package xrand

import (
	"math"
	"testing"
)

func TestDeterminism(t *testing.T) {
	a, b := New(42), New(42)
	for i := 0; i < 100; i++ {
		if a.Uint64() != b.Uint64() {
			t.Fatal("same seed diverged")
		}
	}
	c := New(43)
	same := 0
	a = New(42)
	for i := 0; i < 100; i++ {
		if a.Uint64() == c.Uint64() {
			same++
		}
	}
	if same > 0 {
		t.Fatal("different seeds collided")
	}
}

func TestFloat64Range(t *testing.T) {
	r := New(7)
	var sum float64
	for i := 0; i < 10000; i++ {
		f := r.Float64()
		if f < 0 || f >= 1 {
			t.Fatalf("Float64 = %v", f)
		}
		sum += f
	}
	if mean := sum / 10000; mean < 0.45 || mean > 0.55 {
		t.Errorf("mean %v far from 0.5", mean)
	}
}

func TestIntn(t *testing.T) {
	r := New(9)
	seen := map[int]int{}
	for i := 0; i < 6000; i++ {
		v := r.Intn(6)
		if v < 0 || v >= 6 {
			t.Fatalf("Intn(6) = %d", v)
		}
		seen[v]++
	}
	for v := 0; v < 6; v++ {
		if seen[v] < 700 {
			t.Errorf("value %d appeared only %d times", v, seen[v])
		}
	}
	defer func() {
		if recover() == nil {
			t.Error("Intn(0) did not panic")
		}
	}()
	r.Intn(0)
}

func TestNormFloat64Moments(t *testing.T) {
	r := New(11)
	var sum, sumSq float64
	const n = 20000
	for i := 0; i < n; i++ {
		v := r.NormFloat64()
		sum += v
		sumSq += v * v
	}
	mean := sum / n
	sd := math.Sqrt(sumSq/n - mean*mean)
	if math.Abs(mean) > 0.05 {
		t.Errorf("mean %v", mean)
	}
	if math.Abs(sd-1) > 0.05 {
		t.Errorf("sd %v", sd)
	}
}

func TestPermAndShuffle(t *testing.T) {
	r := New(13)
	p := r.Perm(10)
	seen := map[int]bool{}
	for _, v := range p {
		if v < 0 || v >= 10 || seen[v] {
			t.Fatalf("bad perm %v", p)
		}
		seen[v] = true
	}
}

func TestMixAndHashString(t *testing.T) {
	if Mix(1, 2) == Mix(2, 1) {
		t.Error("Mix not order-sensitive")
	}
	if Mix(1) == Mix(1, 0) {
		t.Error("Mix ignores arity")
	}
	if HashString("abc") == HashString("abd") {
		t.Error("HashString collision on near strings")
	}
	if HashString("x") != HashString("x") {
		t.Error("HashString not deterministic")
	}
}
