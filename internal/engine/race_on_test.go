//go:build race

package engine

// raceEnabled skips byte budgets the race detector's instrumentation
// inflates (see TestNewBytes).
const raceEnabled = true
