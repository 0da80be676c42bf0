package core

import (
	"testing"

	"navaug/internal/dist"
)

// TestBuildSnapshotTier pins which distance tiers BuildSnapshot packs per
// policy: bad input is an error (never a panic), snapshot auto builds
// packed labels even below dist.TwoHopAutoMinNodes, and the analytic
// metric is packed whenever the family has one and the policy is not
// field.
func TestBuildSnapshotTier(t *testing.T) {
	cases := []struct {
		name    string
		family  string
		n       int
		policy  dist.SourcePolicy
		wantErr bool
		metric  bool
		twoHop  bool
	}{
		{name: "unknown policy", family: "torus", n: 64, policy: "nope", wantErr: true},
		{name: "analytic without a metric", family: "gnp", n: 64, policy: dist.PolicyAnalytic, wantErr: true},
		{name: "auto on a metric-less graph", family: "powerlaw-tree", n: 4096, policy: dist.PolicyAuto, twoHop: true},
		{name: "auto on a metric family", family: "torus", n: 1024, policy: dist.PolicyAuto, metric: true},
		{name: "field", family: "torus", n: 1024, policy: dist.PolicyField},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			defer func() {
				if r := recover(); r != nil {
					t.Fatalf("BuildSnapshot panicked: %v", r)
				}
			}()
			snap, _, err := BuildSnapshot(SnapshotOptions{Family: c.family, N: c.n, Seed: 1, Schemes: []string{"uniform"}, Oracle: c.policy})
			if c.wantErr {
				if err == nil {
					t.Fatal("BuildSnapshot succeeded, want an error")
				}
				return
			}
			if err != nil {
				t.Fatal(err)
			}
			if got := snap.Metric != nil; got != c.metric {
				t.Errorf("metric packed = %v, want %v", got, c.metric)
			}
			if got := snap.TwoHop != nil; got != c.twoHop {
				t.Errorf("2-hop labels packed = %v, want %v", got, c.twoHop)
			}
			if c.twoHop && !snap.TwoHop.Packed() {
				t.Error("auto labels are not packed")
			}
		})
	}
}
