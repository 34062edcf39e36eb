// Package tensor provides small dense tensors in NCHW layout used by the
// CNN model, the quantizer, and the functional accelerator simulator.
//
// The accelerator datapath is integer-only: feature maps and weights are
// int8; accumulation is int32 inside the engine.
package tensor

import "fmt"

// Shape describes a tensor extent. The canonical activation layout is
// (C, H, W); weights use (OutC, InC, KH, KW). A Shape may have any rank
// from 1 to 4.
type Shape []int

// Elems returns the number of elements the shape spans.
func (s Shape) Elems() int {
	n := 1
	for _, d := range s {
		n *= d
	}
	return n
}

// Clone returns an independent copy of the shape.
func (s Shape) Clone() Shape {
	c := make(Shape, len(s))
	copy(c, s)
	return c
}

func (s Shape) String() string {
	return fmt.Sprint([]int(s))
}

// Int8 is a dense int8 tensor.
type Int8 struct {
	Shape Shape
	Data  []int8
}

// NewInt8 allocates a zeroed int8 tensor of the given shape.
func NewInt8(shape ...int) *Int8 {
	s := Shape(shape)
	return &Int8{Shape: s.Clone(), Data: make([]int8, s.Elems())}
}

// At3 reads element (c, y, x) of a CHW tensor.
func (t *Int8) At3(c, y, x int) int8 {
	_, h, w := t.Shape[0], t.Shape[1], t.Shape[2]
	return t.Data[(c*h+y)*w+x]
}

// Set3 writes element (c, y, x) of a CHW tensor.
func (t *Int8) Set3(c, y, x int, v int8) {
	_, h, w := t.Shape[0], t.Shape[1], t.Shape[2]
	t.Data[(c*h+y)*w+x] = v
}

// At4 reads element (o, i, ky, kx) of an OIHW weight tensor.
func (t *Int8) At4(o, i, ky, kx int) int8 {
	_, ic, kh, kw := t.Shape[0], t.Shape[1], t.Shape[2], t.Shape[3]
	return t.Data[((o*ic+i)*kh+ky)*kw+kx]
}

// FillPattern fills an int8 tensor with a deterministic pseudo-random but
// reproducible pattern derived from seed. It is used to generate synthetic
// weights and inputs: the accelerator experiments depend on shapes, not on
// learned values, but the functional engine still needs real data to prove
// bit-exactness across preemption.
func FillPattern(t *Int8, seed uint64) {
	s := splitmix(seed)
	for i := range t.Data {
		s = splitmix(s)
		t.Data[i] = int8(s >> 32) // full int8 range
	}
}

func splitmix(x uint64) uint64 {
	x += 0x9e3779b97f4a7c15
	z := x
	z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
	z = (z ^ (z >> 27)) * 0x94d049bb133111eb
	return z ^ (z >> 31)
}
