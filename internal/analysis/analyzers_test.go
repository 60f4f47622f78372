package analysis_test

import (
	"testing"

	"factcheck/internal/analysis"
	"factcheck/internal/analysis/analysistest"
)

// The fixture packages impersonate real packages via their declared
// import paths: detrand only fires in trace-affecting packages,
// wallclock has one rule set for internal/obs and another for the
// serving layer, errenvelope and lockdiscipline scope to the serving
// packages.

func TestDetrandFixture(t *testing.T) {
	analysistest.Run(t, "testdata/detrand", "factcheck/internal/gibbs", analysis.Detrand)
}

func TestDetrandIgnoresNonTracePackages(t *testing.T) {
	// The same sources type-checked under a non-trace-affecting path
	// produce no findings: the invariant is scoped, not global.
	pkg, err := analysis.LoadDir("testdata/detrand", "factcheck/internal/workload")
	if err != nil {
		t.Fatalf("load: %v", err)
	}
	if diags := analysis.Run([]*analysis.Analyzer{analysis.Detrand}, pkg); len(diags) != 0 {
		t.Fatalf("detrand fired outside trace-affecting packages: %v", diags)
	}
}

func TestWallclockObsFixture(t *testing.T) {
	analysistest.Run(t, "testdata/wallclock_obs", "factcheck/internal/obs", analysis.Wallclock)
}

func TestWallclockServiceFixture(t *testing.T) {
	analysistest.Run(t, "testdata/wallclock_service", "factcheck/internal/service", analysis.Wallclock)
}

func TestErrenvelopeFixture(t *testing.T) {
	analysistest.Run(t, "testdata/errenvelope", "factcheck/internal/service", analysis.Errenvelope)
}

func TestErrenvelopeIgnoresOtherPackages(t *testing.T) {
	pkg, err := analysis.LoadDir("testdata/errenvelope", "factcheck/internal/workload")
	if err != nil {
		t.Fatalf("load: %v", err)
	}
	if diags := analysis.Run([]*analysis.Analyzer{analysis.Errenvelope}, pkg); len(diags) != 0 {
		t.Fatalf("errenvelope fired outside the serving packages: %v", diags)
	}
}

func TestLockdisciplineFixture(t *testing.T) {
	analysistest.Run(t, "testdata/lockdiscipline", "factcheck/internal/service", analysis.Lockdiscipline)
}

func TestUnreachedFixture(t *testing.T) {
	analysistest.Run(t, "testdata/unreached", "factcheck/cmd/fixture", analysis.Unreached)
}

func TestUnreachedAPIFixture(t *testing.T) {
	// A library package roots nothing, outside internal/ too ...
	analysistest.Run(t, "testdata/unreached_api", "factcheck/pub", analysis.Unreached)
	// ... but the exported API of a *test support package is a root.
	analysistest.Run(t, "testdata/unreached_testsupport", "factcheck/internal/pub/pubtest", analysis.Unreached)
}

func TestUnreachedInternalPackageHasNoRoots(t *testing.T) {
	// The same library type-checked under internal/ roots nothing either:
	// without a main that imports it, its findings are the same.
	analysistest.Run(t, "testdata/unreached_api", "factcheck/internal/pub", analysis.Unreached)
}
