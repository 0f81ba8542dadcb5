package dqp

import (
	"os"
	"testing"

	"adhocshare/internal/testutil"
)

// The overlap tests drive one deployment from several client goroutines;
// any goroutine outliving the suite is a leak.
func TestMain(m *testing.M) { os.Exit(testutil.VerifyNoLeaks(m)) }
