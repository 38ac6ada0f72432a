// Command app is the fixture's one production root.
package main

import (
	"fmt"

	"example.test/mod/internal/lib"
)

func main() {
	lib.Reachable()
	fmt.Println(lib.Celsius(21), lib.First([]int{lib.Box[int]{}.Get()}))
}
