package tensor_test

import (
	"slices"
	"testing"

	"inca/internal/tensor"
)

func TestShapeElemsAndClone(t *testing.T) {
	s := tensor.Shape{3, 4, 5}
	if s.Elems() != 60 {
		t.Fatalf("Elems = %d", s.Elems())
	}
	c := s.Clone()
	if !slices.Equal(s, c) {
		t.Error("clone not equal")
	}
	c[0] = 9
	if s[0] == 9 {
		t.Error("clone aliases original")
	}
}

func TestInt8Indexing(t *testing.T) {
	a := tensor.NewInt8(2, 3, 4)
	a.Set3(1, 2, 3, -7)
	if a.At3(1, 2, 3) != -7 {
		t.Fatal("At3/Set3 mismatch")
	}
	if a.Data[(1*3+2)*4+3] != -7 {
		t.Fatal("CHW layout broken")
	}
	w := tensor.NewInt8(2, 3, 2, 2)
	w.Data[((1*3+2)*2+1)*2+0] = 5
	if w.At4(1, 2, 1, 0) != 5 {
		t.Fatal("OIHW layout broken")
	}
}

func TestFillPatternDeterministic(t *testing.T) {
	a := tensor.NewInt8(4, 5, 6)
	b := tensor.NewInt8(4, 5, 6)
	tensor.FillPattern(a, 42)
	tensor.FillPattern(b, 42)
	if !slices.Equal(a.Data, b.Data) {
		t.Fatal("same seed produced different tensors")
	}
	tensor.FillPattern(b, 43)
	if slices.Equal(a.Data, b.Data) {
		t.Fatal("different seeds produced identical tensors")
	}
	// The pattern should cover both signs.
	pos, neg := false, false
	for _, v := range a.Data {
		if v > 0 {
			pos = true
		}
		if v < 0 {
			neg = true
		}
	}
	if !pos || !neg {
		t.Fatal("pattern does not span int8 range")
	}
}
