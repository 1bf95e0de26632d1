package parallel

// CheckAssignmentOracles exposes the oracle check of oracle_test.go to
// oracle_ext_test.go, whose package may import experiments (an importer
// of this package).
var CheckAssignmentOracles = checkAssignmentOracles
