package splitmix

import "testing"

func TestMix64Stability(t *testing.T) {
	// Jitter, certify draws and seeded experiment inputs depend on Mix64
	// being a pure function.
	if Mix64(1, 2, 3) != Mix64(1, 2, 3) {
		t.Error("Mix64 not deterministic")
	}
	if Mix64(1, 2, 3) == Mix64(1, 2, 4) {
		t.Error("Mix64 collides on adjacent inputs")
	}
}
