//go:build race

package main

// raceEnabled reports whether this binary was built with the race
// detector, whose instrumentation allocates inside code that is
// otherwise allocation-free, so the zero-alloc gates cannot pass here.
const raceEnabled = true
