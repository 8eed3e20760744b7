package crash

import "testing"

// forEachEngine runs f as a subtest per engine variant.
func forEachEngine(t *testing.T, f func(t *testing.T, eng engineVariant)) {
	t.Helper()
	for _, eng := range engineVariants {
		t.Run(eng.name, func(t *testing.T) { f(t, eng) })
	}
}
