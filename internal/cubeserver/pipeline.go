package cubeserver

import (
	"fmt"

	"repro/internal/datacube"
)

// PipelineStep is one operator application in a server-side pipeline.
// Input defaults to the previous step's output; step 0 consumes the
// pipeline's source cube.
type PipelineStep struct {
	// Op is the operator: apply, reduce, reducegroup, reducestride,
	// subset, subsetrows, intercube, aggrows, aggtrailing — or, as the
	// last step only, partial (see runPartialPipeline).
	Op string
	// Expr is the expression for apply.
	Expr string
	// RowOp names the reduction for reduce*/agg* and the arithmetic op
	// for intercube.
	RowOp string
	// Params are row-op parameters.
	Params []float64
	// Group is the group/stride size for reducegroup/reducestride.
	Group int
	// Lo, Hi bound subset/subsetrows.
	Lo, Hi int
	// OtherID names the second operand cube for intercube.
	OtherID string
	// Keep retains this step's intermediate cube; unkept intermediates
	// are deleted server-side once the pipeline finishes (the Listing 1
	// Mask.delete() pattern, automated).
	Keep bool
	// Tolerance, set on the FINAL step, declares the absolute error the
	// client accepts on the pipeline result, enabling coarse-first
	// execution over the source cube's resolution pyramid server-side
	// (datacube.Plan.Tolerance). Zero keeps execution byte-identical to
	// the exact path; it is ignored on non-final steps.
	Tolerance float64
}

// PipelineRequest executes an operator chain server-side in one round
// trip — the analogue of submitting an Ophidia workflow document
// instead of issuing operators one by one.
type PipelineRequest struct {
	CubeID string
	Steps  []PipelineStep
}

// runPipeline compiles the request into a datacube.Plan and executes
// it: consecutive row-local steps run as one fused per-fragment pass,
// and only kept steps (plus the final result) materialize as registered
// cubes — a Keep is the client's explicit materialization boundary.
// Failed pipelines leave no unkept intermediates behind (the plan
// executor deletes its temporaries on error).
func runPipeline(engine *datacube.Engine, req *PipelineRequest) (*datacube.Cube, error) {
	if len(req.Steps) == 0 {
		return nil, fmt.Errorf("cubeserver: empty pipeline")
	}
	src, err := engine.Get(req.CubeID)
	if err != nil {
		return nil, err
	}
	plan := src.Lazy()
	for i, st := range req.Steps {
		switch st.Op {
		case "apply":
			plan.Apply(st.Expr)
		case "reduce":
			plan.Reduce(st.RowOp, st.Params...)
		case "reducegroup":
			plan.ReduceGroup(st.RowOp, st.Group, st.Params...)
		case "reducestride":
			plan.ReduceStride(st.RowOp, st.Group, st.Params...)
		case "subset":
			plan.Subset(st.Lo, st.Hi)
		case "subsetrows":
			plan.SubsetRows(st.Lo, st.Hi)
		case "intercube":
			other, err := engine.Get(st.OtherID)
			if err != nil {
				return nil, fmt.Errorf("cubeserver: pipeline step %d (%s): %w", i, st.Op, err)
			}
			plan.Intercube(other, st.RowOp)
		case "aggrows":
			plan.AggregateRows(st.RowOp, st.Params...)
		case "aggtrailing":
			plan.AggregateTrailing(st.RowOp, st.Params...)
		default:
			return nil, fmt.Errorf("pipeline step %d: %w %q", i, ErrUnknownOp, st.Op)
		}
		// The last step's output is the pipeline result and is always
		// retained, so Keep on it is moot — same as the eager semantics.
		if st.Keep && i < len(req.Steps)-1 {
			plan.Keep()
		}
	}
	if tol := req.Steps[len(req.Steps)-1].Tolerance; tol > 0 {
		plan.Tolerance(tol)
	}
	out, err := plan.Execute()
	if err != nil {
		return nil, fmt.Errorf("cubeserver: pipeline: %w", err)
	}
	return out, nil
}

// endsInPartial reports whether a pipeline's last step is the terminal
// partial step.
func endsInPartial(steps []PipelineStep) bool {
	return len(steps) > 0 && steps[len(steps)-1].Op == "partial"
}

// runPartialPipeline executes a pipeline whose last step is "partial":
// the shard half of a cluster aggrows. The steps before it run as any
// pipeline does; the partial step then reduces the rows of their
// result with its RowOp into one float64 per implicit position
// (datacube.Cube.AggregateRowsPartial), and that result is deleted
// again, so the call registers nothing. The returned shape describes
// the reduced cube (its rows weigh the partial in the merge) and
// carries no cube ID. A partial step alone reduces the source itself.
func runPartialPipeline(engine *datacube.Engine, req *PipelineRequest) ([]float64, Shape, error) {
	steps := req.Steps
	last := steps[len(steps)-1]
	var c *datacube.Cube
	var err error
	if len(steps) == 1 {
		c, err = engine.Get(req.CubeID)
	} else {
		c, err = runPipeline(engine, &PipelineRequest{CubeID: req.CubeID, Steps: steps[:len(steps)-1]})
		if err == nil {
			defer c.Delete()
		}
	}
	if err != nil {
		return nil, Shape{}, err
	}
	p, err := c.AggregateRowsPartial(last.RowOp, last.Params...)
	if err != nil {
		return nil, Shape{}, fmt.Errorf("cubeserver: pipeline: %w", err)
	}
	shape := shapeOf(c)
	shape.CubeID = ""
	return p, shape, nil
}

// Pipeline executes an operator chain server-side and returns the
// final cube's handle. Intermediate cubes are freed automatically
// unless their step sets Keep.
func (r *RemoteCube) Pipeline(steps ...PipelineStep) (*RemoteCube, error) {
	resp, err := r.client.call(&Request{Op: "pipeline", CubeID: r.ID(), Pipeline: steps})
	if err != nil {
		return nil, err
	}
	return r.client.wrap(resp), nil
}
