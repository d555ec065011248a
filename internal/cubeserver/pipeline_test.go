package cubeserver

import (
	"testing"

	"repro/internal/datacube"
)

func TestPipelineOneRoundTrip(t *testing.T) {
	client, engine := startServer(t)
	path := writeTestFile(t, t.TempDir(), "a.nc")
	cube, err := client.ImportFiles([]string{path}, "T", "time")
	if err != nil {
		t.Fatal(err)
	}
	before := len(engine.List())

	// Listing-1 chain server-side: mask → count, one network call
	out, err := cube.Pipeline(
		PipelineStep{Op: "apply", Expr: "x>5 ? 1 : 0"},
		PipelineStep{Op: "reduce", RowOp: "sum"},
	)
	if err != nil {
		t.Fatal(err)
	}
	if out.Shape.ImplicitLen != 1 {
		t.Fatalf("shape = %+v", out.Shape)
	}
	vals, err := out.Values()
	if err != nil {
		t.Fatal(err)
	}
	for cell, row := range vals {
		if row[0] != 1 { // each cell has one value > 5 (the t=1 sample)
			t.Fatalf("cell %d count = %v", cell, row)
		}
	}
	// the mask intermediate was deleted server-side: only the source
	// and the result were added
	if got := len(engine.List()); got != before+1 {
		t.Fatalf("resident cubes = %d, want %d (intermediate leaked)", got, before+1)
	}
}

func TestPipelineKeepRetainsIntermediate(t *testing.T) {
	client, engine := startServer(t)
	path := writeTestFile(t, t.TempDir(), "a.nc")
	cube, _ := client.ImportFiles([]string{path}, "T", "time")
	before := len(engine.List())
	if _, err := cube.Pipeline(
		PipelineStep{Op: "apply", Expr: "x*2", Keep: true},
		PipelineStep{Op: "reduce", RowOp: "max"},
	); err != nil {
		t.Fatal(err)
	}
	if got := len(engine.List()); got != before+2 {
		t.Fatalf("resident cubes = %d, want %d (kept intermediate missing)", got, before+2)
	}
}

func TestPipelineIntercubeAndGroups(t *testing.T) {
	client, _ := startServer(t)
	dir := t.TempDir()
	p1 := writeTestFile(t, dir, "a.nc")
	p2 := writeTestFile(t, dir, "b.nc")
	c1, _ := client.ImportFiles([]string{p1}, "T", "time")
	c2, _ := client.ImportFiles([]string{p2}, "T", "time")
	out, err := c1.Pipeline(
		PipelineStep{Op: "intercube", RowOp: "sub", OtherID: c2.ID()},
		PipelineStep{Op: "reducegroup", RowOp: "max", Group: 2},
		PipelineStep{Op: "aggrows", RowOp: "max"},
	)
	if err != nil {
		t.Fatal(err)
	}
	v, err := out.Row(0)
	if err != nil {
		t.Fatal(err)
	}
	if v[0] != 0 { // identical files → zero difference everywhere
		t.Fatalf("pipeline result = %v", v)
	}
}

func TestPipelineErrorsAtomic(t *testing.T) {
	client, engine := startServer(t)
	path := writeTestFile(t, t.TempDir(), "a.nc")
	cube, _ := client.ImportFiles([]string{path}, "T", "time")
	before := len(engine.List())
	// second step fails: the first step's intermediate must not leak
	if _, err := cube.Pipeline(
		PipelineStep{Op: "apply", Expr: "x+1"},
		PipelineStep{Op: "reduce", RowOp: "nosuchop"},
	); err == nil {
		t.Fatal("bad pipeline accepted")
	}
	if got := len(engine.List()); got != before {
		t.Fatalf("resident cubes = %d, want %d after failed pipeline", got, before)
	}
	if _, err := cube.Pipeline(); err == nil {
		t.Fatal("empty pipeline accepted")
	}
	if _, err := cube.Pipeline(PipelineStep{Op: "teleport"}); err == nil {
		t.Fatal("unknown op accepted")
	}
	if _, err := cube.Pipeline(PipelineStep{Op: "intercube", RowOp: "add", OtherID: "cube-999"}); err == nil {
		t.Fatal("missing operand accepted")
	}
}

// TestPipelinePartialRegistersNothing drives the shard half of a
// cluster aggrows over the wire: a pipeline ending in a partial step
// answers the float64 partials of its segment's result, exactly as
// AggregateRowsPartial over that registered result would, and leaves
// no cube behind; a partial step alone reduces the source. A partial
// step anywhere but last is refused.
func TestPipelinePartialRegistersNothing(t *testing.T) {
	client, engine := startServer(t)
	path := writeTestFile(t, t.TempDir(), "a.nc")
	cube, err := client.ImportFiles([]string{path}, "T", "time")
	if err != nil {
		t.Fatal(err)
	}
	seg := []PipelineStep{{Op: "apply", Expr: "x*3"}, {Op: "apply", Expr: "x+0.5"}}
	ref, err := cube.Pipeline(seg...)
	if err != nil {
		t.Fatal(err)
	}
	refCube, err := engine.Get(ref.ID())
	if err != nil {
		t.Fatal(err)
	}
	src, err := engine.Get(cube.ID())
	if err != nil {
		t.Fatal(err)
	}
	before := len(engine.List())
	for _, c := range []struct {
		steps []PipelineStep
		over  *datacube.Cube
	}{
		{append(seg, PipelineStep{Op: "partial", RowOp: "sum"}), refCube},
		{[]PipelineStep{{Op: "partial", RowOp: "sum"}}, src},
	} {
		resp, err := client.call(&Request{Op: "pipeline", CubeID: cube.ID(), Pipeline: c.steps})
		if err != nil {
			t.Fatal(err)
		}
		want, err := c.over.AggregateRowsPartial("sum")
		if err != nil {
			t.Fatal(err)
		}
		if !sameF64Bits(resp.Partials, want) || resp.Shape.CubeID != "" {
			t.Fatalf("partials %v (cube %q), want %v and no cube", resp.Partials, resp.Shape.CubeID, want)
		}
		if got := len(engine.List()); got != before {
			t.Fatalf("resident cubes = %d, want %d (the segment result leaked)", got, before)
		}
	}
	bad := []PipelineStep{{Op: "partial", RowOp: "sum"}, {Op: "apply", Expr: "x"}}
	if _, err := cube.Pipeline(bad...); err == nil {
		t.Fatal("a partial step before the last one should be refused")
	}
}
