package core_test

import (
	"reflect"
	"testing"

	"inca/internal/accel"
	"inca/internal/core"
	"inca/internal/iau"
	"inca/internal/model"
	"inca/internal/quant"
	"inca/internal/tensor"
)

// TestInferBatchMatchesPerElement: a DeployBatched deployment run over B
// distinct inputs returns, per element, exactly the output the quantized
// reference produces for that input alone — batching changes the schedule,
// never the numbers.
func TestInferBatchMatchesPerElement(t *testing.T) {
	rt, err := core.NewRuntime(accel.Big(), iau.PolicyVI)
	if err != nil {
		t.Fatal(err)
	}
	const batch = 4
	g := model.New("serve", 3, 12, 12)
	g.Conv("c0", 0, 8, 3, 1, 1, true)
	g.Conv("c1", 1, 5, 1, 1, 0, false)

	d, err := rt.DeployBatched(1, g, 17, batch)
	if err != nil {
		t.Fatal(err)
	}
	if got := d.Prog.BatchN(); got != batch {
		t.Fatalf("deployed batch %d, want %d", got, batch)
	}

	inputs := make([]*tensor.Int8, batch)
	for b := range inputs {
		inputs[b] = tensor.NewInt8(g.InC, g.InH, g.InW)
		tensor.FillPattern(inputs[b], 0xC0FE^(uint64(b)*0x9E37))
	}
	outs, req, err := d.InferBatch(inputs)
	if err != nil {
		t.Fatal(err)
	}
	if req == nil || req.DoneCycle == 0 {
		t.Fatal("batched inference did not complete")
	}

	q, err := quant.Synthesize(g, 17) // same seed as DeployBatched
	if err != nil {
		t.Fatal(err)
	}
	for b, in := range inputs {
		want, err := q.RunFinal(in)
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(outs[b], want) {
			t.Fatalf("batch element %d differs from single-image reference", b)
		}
	}

	// A wrong input count is rejected up front.
	if _, _, err := d.InferBatch(inputs[:2]); err == nil {
		t.Fatal("InferBatch accepted 2 inputs for a batch-4 plan")
	}
}

// TestTaskSpecBatchValidation: sched.TaskSpec.Batch must match the compiled
// plan — checked here through core's deployment since core owns compilation.
func TestDeployBatchedRejectsBadBatch(t *testing.T) {
	rt, err := core.NewRuntime(accel.Big(), iau.PolicyVI)
	if err != nil {
		t.Fatal(err)
	}
	g := model.NewTinyCNN(3, 12, 12)
	if _, err := rt.DeployBatched(1, g, 3, -2); err == nil {
		t.Fatal("negative batch accepted")
	}
}
