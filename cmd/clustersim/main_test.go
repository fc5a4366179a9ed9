package main

import "testing"

func TestValidate(t *testing.T) {
	cases := []struct {
		size, procs, pages, rounds int
		wl                         string
		ok                         bool
	}{
		{4, 16, 4, 20, "independent", true},
		{16, 1, 1, 1, "shared", true},
		{1, 16, 4, 20, "shared", true},
		{3, 16, 4, 20, "independent", false},
		{0, 16, 4, 20, "independent", false},
		{32, 16, 4, 20, "independent", false},
		{4, 99, 4, 20, "independent", false},
		{4, 17, 4, 20, "independent", false},
		{4, 0, 4, 20, "independent", false},
		{4, 16, 0, 20, "independent", false},
		{4, 16, 4, 0, "independent", false},
		{4, 16, 4, 20, "bogus", false},
	}
	for _, c := range cases {
		err := validate(c.size, c.procs, c.pages, c.rounds, c.wl)
		if (err == nil) != c.ok {
			t.Errorf("validate(size=%d procs=%d pages=%d rounds=%d %q) = %v, want ok=%v",
				c.size, c.procs, c.pages, c.rounds, c.wl, err, c.ok)
		}
	}
}
