package crash

import "testing"

// Crash-point conformance: SweepAllPoints drives representative operations
// of every structure through a crash at every shared-memory access. The
// matrix itself — structures, engine variants (including eviction-enabled
// heaps), cases and oracles — lives in scenarios.go.
func TestCrashConformanceScenarios(t *testing.T) {
	for _, sc := range Scenarios(SweepEngineVariants()) {
		sc := sc
		t.Run(sc.Name(), func(t *testing.T) {
			SweepAllPoints(t, sc.Build, sc.Cases)
		})
	}
}
