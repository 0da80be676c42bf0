package scenario

import (
	"reflect"
	"testing"

	"navaug/internal/augment"
	"navaug/internal/churn"
	"navaug/internal/dist"
	"navaug/internal/graph"
	"navaug/internal/graph/gen"
	"navaug/internal/xrand"
)

// TestChurnDebtDeclaresApproxSource: a churned graph whose repair oracle
// still carries debt serves stale distances, so the runner must declare
// it approximate and routing must keep the full neighbour scan.  On this
// instance the early exit would change the estimate, so the test fails if
// the runner stops setting sim.Config.ApproxSource.  At zero debt the
// oracle is exact and the flag stays off.
func TestChurnDebtDeclaresApproxSource(t *testing.T) {
	runner := NewRunner(Config{Seed: 20070610, Workers: 2})
	defer runner.Close()
	fam := GraphFamily("regular", func(n int, rng *xrand.RNG) (*graph.Graph, error) {
		return gen.RandomRegular(n, 4, rng)
	})
	for _, budget := range []int{0, -1} {
		ref := fam.Ref(1024)
		ref.Churn = &churn.Spec{Rate: 0.01, Batches: 8, RepairBudget: budget, CompactEvery: 4}
		cell := Cell{Graph: ref, Scheme: Scheme(augment.NewUniformScheme()), Pairs: 24, Trials: 2}
		gkey := graphKey(ref)
		ge, err := runner.builtGraph(gkey, ref)
		if err != nil {
			t.Fatal(err)
		}
		debt := ge.source.(*dist.DynTwoHop).Debt()
		cfg := runner.cellSimConfig(gkey, cell, ge)
		if cfg.ApproxSource != (debt > 0) {
			t.Fatalf("budget %d: debt %d but ApproxSource = %v", budget, debt, cfg.ApproxSource)
		}
		if budget != 0 {
			continue
		}
		if debt == 0 {
			t.Fatal("budget 0 left no debt; the instance cannot exercise the gate")
		}
		inst, name, err := runner.prepared(gkey, cell, ge.bg)
		if err != nil {
			t.Fatal(err)
		}
		estimate := func(approx bool) any {
			c := cfg
			c.ApproxSource = approx
			est, err := runner.engine.EstimateInstance(ge.bg.G, name, inst, c)
			if err != nil {
				t.Fatal(err)
			}
			return est
		}
		fullScan, earlyExit := estimate(true), estimate(false)
		if reflect.DeepEqual(fullScan, earlyExit) {
			t.Fatal("early exit on the stale oracle did not change the estimate; pick an instance where the gate matters")
		}
		got, _, err := runner.runCell(cell)
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(got, fullScan) {
			t.Fatal("the runner's estimate on a debt-carrying oracle differs from the full-scan estimate")
		}
	}
}
