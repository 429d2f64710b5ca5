package engine

// Unregister removes the parser registered under fingerprint. Tests that
// register a throwaway parser undo it in t.Cleanup, so the process-wide
// registry holds only the presets for whichever test runs next.
func Unregister(fingerprint string) {
	registry.mu.Lock()
	defer registry.mu.Unlock()
	delete(registry.byFP, fingerprint)
}
