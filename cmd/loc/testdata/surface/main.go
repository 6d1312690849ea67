// Command surface uses the fixture's lib package the ways the gate must tell
// apart.
package main

import (
	"fmt"

	"fixture/internal/lib"
)

func main() {
	fmt.Println(lib.Describe(nil, lib.Used), lib.Registry{})
	c := lib.Count(3)
	fmt.Println(c.Live)
	fmt.Println(lib.Fault(lib.Paged{Store: &lib.Store{}}, 1))
}
