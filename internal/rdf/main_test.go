package rdf

import (
	"os"
	"testing"

	"adhocshare/internal/testutil"
)

// TestGraphConcurrentAccess reads and writes one graph from several
// goroutines; any goroutine outliving the suite is a leak.
func TestMain(m *testing.M) { os.Exit(testutil.VerifyNoLeaks(m)) }
