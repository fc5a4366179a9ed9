package a

import "testing"

func TestCallsTestOnly(t *testing.T) { TestOnly(); testOnly() }
