package repro

// engineCase is one persistence placement for table-driven tests.
type engineCase struct {
	name string
	kind EngineKind
}

// engines enumerates both engine variants (the paper's Isb and Isb-Opt
// curves) so tests iterate instead of hardcoding one.
func engines() []engineCase {
	return []engineCase{{"isb", EngineIsb}, {"isb-opt", EngineIsbOpt}}
}
