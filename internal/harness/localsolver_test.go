package harness

import "testing"

// TestLocalSolverRegistryInSync keeps the listing registry and the parser in
// step: every listed solver must parse, every solver must carry a
// description, and unknown names must fail loudly.
func TestLocalSolverRegistryInSync(t *testing.T) {
	infos := LocalSolverInfos()
	if len(infos) == 0 {
		t.Fatal("no local solvers registered")
	}
	for _, s := range infos {
		if _, err := parseLocalSolver(s.Name); err != nil {
			t.Errorf("listed solver %q does not parse: %v", s.Name, err)
		}
		if s.Description == "" {
			t.Errorf("solver %q has no description", s.Name)
		}
	}
	if infos[0].Name != "kernel-exact" {
		t.Errorf("the default (kernel-exact) must lead the listing, got %q", infos[0].Name)
	}
	if _, err := parseLocalSolver(""); err != nil {
		t.Errorf("empty solver name must select the default: %v", err)
	}
	// "exact" is no solver name: the kernel ladder's direct rung already
	// runs the raw branch and bound on small instances.
	for _, name := range []string{"no-such-solver", "exact"} {
		if _, err := parseLocalSolver(name); err == nil {
			t.Errorf("solver name %q must be rejected", name)
		}
	}
}
