package main

import (
	"fmt"

	"fix/internal/a"
)

func main() {
	a.Used()
	fmt.Println(a.NewShape(), a.Measure(a.NewShape()), a.Knobs{Lit: 1}.Sum())
}
