//go:build !faultinject

package faultinject

// Default build: every hook is an inlinable no-op and Activate cannot
// arm anything, so release binaries pay nothing for the injection
// points compiled into the engine.

// Enabled reports whether this binary was built with fault injection
// compiled in (-tags faultinject).
const Enabled = false

// Activate is a no-op without the faultinject build tag.
func Activate(Config) {}

// Deactivate is a no-op without the faultinject build tag.
func Deactivate() {}

// Fired always reports zero without the faultinject build tag.
func Fired(Site) uint64 { return 0 }

// MaybePanic never panics without the faultinject build tag.
func MaybePanic(Site) {}

// MaybeSleep never sleeps without the faultinject build tag.
func MaybeSleep(Site) {}

// Fires never fires without the faultinject build tag.
func Fires(Site) bool { return false }
