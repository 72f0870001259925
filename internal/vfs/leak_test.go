package vfs_test

import (
	"testing"

	"repro/internal/leakcheck"
)

// TestMain gates the whole package behind the goroutine-leak check:
// every goroutine running module code must be gone when the tests
// are done.
func TestMain(m *testing.M) { leakcheck.Main(m) }
