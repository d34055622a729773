package verify

// Reference passes exposed to the external differential tests: the
// map-based IR009 dataflow (mustdefine_ref_test.go) and SC path walk
// (pathdeps_ref_test.go).
var (
	CheckFunctionRef    = checkFunctionRef
	PathDependencesBoth = pathDependencesBoth
)
