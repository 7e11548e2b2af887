package sim

// RandomProgram exposes the property tests' program generator to the
// external sim_test package.
var RandomProgram = randomProgram
