package tensor_test

import (
	"strings"
	"testing"

	"inca/internal/tensor"
)

func TestShapeString(t *testing.T) {
	s := tensor.Shape{3, 4}
	if got := s.String(); !strings.Contains(got, "3") || !strings.Contains(got, "4") {
		t.Fatalf("String %q", got)
	}
}
