package accel

import (
	"fmt"

	"inca/internal/isa"
	"inca/internal/tensor"
)

// NewArena materialises a task's DDR image for functional execution: a
// zeroed featuremap area with the program's weight image placed at its
// weight base. Programs compiled without EmitWeights cannot run
// functionally.
func NewArena(p *isa.Program) ([]byte, error) {
	return isa.BuildLinkedArena([]*isa.Program{p})
}

// WriteInputAt copies an input activation (CHW int8) into batch element
// bat's plane of the arena's input region; InputBytes is per-element, so
// element b lives at InputAddr + b*InputBytes.
func WriteInputAt(arena []byte, p *isa.Program, in *tensor.Int8, bat int) error {
	if uint32(len(in.Data)) != p.InputBytes {
		return fmt.Errorf("accel: input has %d bytes, program expects %d", len(in.Data), p.InputBytes)
	}
	if bat < 0 || bat >= p.BatchN() {
		return fmt.Errorf("accel: batch element %d outside program batch %d", bat, p.BatchN())
	}
	base := int(p.InputAddr) + bat*int(p.InputBytes)
	for i, v := range in.Data {
		arena[base+i] = byte(v)
	}
	return nil
}

// ReadOutputAt extracts batch element bat's final featuremap; OutputBytes is
// per-element, so element b lives at OutputAddr + b*OutputBytes.
func ReadOutputAt(arena []byte, p *isa.Program, bat int) (*tensor.Int8, error) {
	if len(p.Layers) == 0 {
		return nil, fmt.Errorf("accel: program %q has no layers", p.Name)
	}
	if bat < 0 || bat >= p.BatchN() {
		return nil, fmt.Errorf("accel: batch element %d outside program batch %d", bat, p.BatchN())
	}
	last := &p.Layers[len(p.Layers)-1]
	out := tensor.NewInt8(last.OutC, last.OutH, last.OutW)
	if uint32(len(out.Data)) != p.OutputBytes {
		return nil, fmt.Errorf("accel: output region %d bytes, shape wants %d", p.OutputBytes, len(out.Data))
	}
	base := int(p.OutputAddr) + bat*int(p.OutputBytes)
	for i := range out.Data {
		out.Data[i] = int8(arena[base+i])
	}
	return out, nil
}
