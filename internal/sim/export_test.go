package sim

// GoroutineCounts returns how many goroutine-backed processes e has
// started (Go) and how many times its loop has handed the baton to a
// process goroutine. A run whose processes are all steppers reports 0, 0.
func GoroutineCounts(e *Env) (spawns, wakes uint64) { return e.goSpawns, e.goWakes }
