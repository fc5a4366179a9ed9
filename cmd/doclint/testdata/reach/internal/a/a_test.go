package a

import "testing"

func TestCallsTestOnly(t *testing.T) { TestOnly(); testOnly() }

func TestSetsTestSet(t *testing.T) { _ = Knobs{TestSet: 1}.Sum() }
