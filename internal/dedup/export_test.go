package dedup

// SetMaxInvocations lowers the rerun cap for a test in another package
// (the engine's handling of a capped join); the returned func restores
// it.
func SetMaxInvocations(n int) (restore func()) {
	old := maxInvocations
	maxInvocations = n
	return func() { maxInvocations = old }
}
