package main

import "testing"

func TestValidate(t *testing.T) {
	cases := []struct {
		jobs, parworkers int
		ok               bool
	}{
		{1, 1, true},
		{8, 8, true},
		{2, 1, true},
		{0, 8, false},
		{-3, 8, false},
		{1, 0, false},
		{1, -1, false},
	}
	for _, c := range cases {
		err := validate(c.jobs, c.parworkers)
		if (err == nil) != c.ok {
			t.Errorf("validate(jobs=%d parworkers=%d) = %v, want ok=%v", c.jobs, c.parworkers, err, c.ok)
		}
	}
}
